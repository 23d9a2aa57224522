"""The three oracle workloads and the closed forms their verdicts must match.

Each workload calls tlschur's public entry points for one degree d and one
blessed configuration and returns its verdicts as (check, expected, got, ok)
tuples.  The inputs are fixed by d and the configuration: the oracle uses
fixed random.Random seeds internally, so a workload always does the same work.
Calls go through the `tlschur` package attributes at call time, so a tracer
installed after import sees them.
"""

from __future__ import annotations

from math import comb

import tlschur as T

# checks that verify_suite must report at every degree; a missing one fails
_VERIFY_CORE = ("tl_image_dim", "commutant_dim", "double_centralizer", "oracle_regular_domdim", "oracle_summand_infinite")


def _check(name, expected, got):
    return (name, expected, got, expected == got)


def verify(d: int, config: str) -> list[tuple]:
    """`tlschur verify --d d`: every verdict's own pass field, and no check missing."""
    rows = T.verify_suite(d, config)
    out = [(r["check_id"], r["expected"], r["got"], r["pass"] is True) for r in rows]
    seen = {r["check_id"] for r in rows}
    out += [_check(name, "present", "missing") for name in _VERIFY_CORE if name not in seen]
    return out


def centralizer(d: int, config: str) -> list[tuple]:
    """Double-centralizer report against C(d+3, 3) and the Catalan number."""
    rep = T.double_centralizer_report(T.BLESSED_CONFIGS[config](d))
    return [
        _check("commutant_dim", comb(d + 3, 3), rep["commutant_dim"]),
        _check("tl_image_dim", T.catalan(d), rep["tl_image_dim"]),
        _check("double_commutant_dim", T.catalan(d), rep["double_commutant_dim"]),
        _check("tl_image_equals_double_commutant", True, rep["tl_image_equals_double_commutant"]),
        _check("commutant_closed_under_product", True, rep["commutant_closed_under_product"]),
    ]


def coresolution(d: int, config: str) -> list[tuple]:
    """Regular-module dominant dimension relative to tensor space against domdim_regular(d)."""
    alg = T.schur_algebra(T.BLESSED_CONFIGS[config](d))
    got = T.relative_domdim(T.regular_module(alg), T.tensor_module(alg))
    want = T.domdim_regular(d, T.FieldRegime(quantum_char_is_2=True))
    return [
        _check("schur_algebra_dim", comb(d + 3, 3), alg.dim),
        (
            "oracle_regular_domdim",
            "infinity" if isinstance(want, T.Infinity) else want,
            got.encode(),
            got.matches(want),
        ),
    ]


RUN = {"verify-d4": verify, "centralizer-d5": centralizer, "coresolution-d5": coresolution}
