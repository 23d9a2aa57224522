"""Acceptance suite: one test per shipped criterion, with runtime budgets.

Every test prints a single `criterion NN PASS` line (visible with -s or -rA)
after its assertions and budget check.  Budgets are wall-clock seconds; the
kernels are plain numpy, so nothing needs warming before the timing starts.
"""

import time
from importlib import resources
from math import comb

import numpy as np
import pytest

from tlschur.domdim import (
    INFINITY,
    FieldRegime,
    IntegralRegime,
    classify_projective,
    domdim_char_tilting,
    hn_dimension,
)
from tlschur.fields import GF, GF2, GF5
from tlschur.hecke import BLESSED_CONFIGS, HeckeParams
from tlschur.linalg import Matrix
from tlschur.oracle import (
    _relations_verdicts,
    _tensor_end,
    direct_sum,
    regular_module,
    relative_domdim,
    schur_algebra,
    standard_module,
    tensor_module,
)
from tlschur.tensor_action import double_centralizer_report
from tlschur.tl import catalan
from tlschur.weights import decomposition_matrix, tilting_delta_mults, twisted_filtration

CONFIG_NAMES = sorted(BLESSED_CONFIGS)  # gf2-u1, gf5-u2


def _pass(n: int, msg: str) -> None:
    print(f"criterion {n:02d} PASS: {msg}")


@pytest.fixture(scope="module")
def setups_d4():
    out = {}
    for name in CONFIG_NAMES:
        params = BLESSED_CONFIGS[name](4)
        alg = schur_algebra(params)
        out[name] = (params, alg, tensor_module(alg))
    return out


def test_criterion_01_decomposition_table_degree_46():
    t0 = time.perf_counter()
    table = decomposition_matrix(46)
    assert len(table.weights) == 24
    assert table.weights == tuple(range(0, 47, 2))
    assert set(table.rows[table.weights.index(46)]) == {0, 8, 12, 14, 16, 32, 40, 44, 46}
    golden = resources.files("tlschur").joinpath("data/decomp_s2_46.csv").read_text()
    assert table.to_csv() == golden
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, f"24x24 table for d=46 matches the stored golden csv in {elapsed:.3f}s")


def test_criterion_02_projective_classification_degree_28():
    t0 = time.perf_counter()
    infinite = set()
    finite = set()
    for m in range(0, 29, 2):
        cls = classify_projective(28, m)
        if cls.value is INFINITY:
            infinite.add(m)
        else:
            assert cls.value == 28
            finite.add(m)
    window = set(range(16, 27, 2))
    assert infinite & window == {18, 20, 22, 26}
    assert finite & window == {16, 24}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(2, f"P(m) at d=28 infinite exactly on {{18,20,22,26}} within 16..26 in {elapsed:.3f}s")


@pytest.mark.parametrize("d,budget", [(2, 1.0), (4, 60.0)])
def test_criterion_03_oracle_regular_domdim(d, budget):
    t0 = time.perf_counter()
    for name in CONFIG_NAMES:
        params = BLESSED_CONFIGS[name](d)
        alg = schur_algebra(params)
        q = tensor_module(alg)  # fresh module: endomorphism caches count toward the budget
        res = relative_domdim(regular_module(alg), q)
        assert res.kind == "exact" and res.value == d, (name, res)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _pass(3, f"oracle regular domdim == {d} for both configs in {elapsed:.2f}s (budget {budget:.0f}s)")


def test_criterion_03_stretch_degree_6():
    t0 = time.perf_counter()
    params = BLESSED_CONFIGS["gf2-u1"](6)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    res = relative_domdim(regular_module(alg), q)
    assert res.kind == "exact" and res.value == 6, res
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _pass(3, f"stretch: oracle regular domdim == 6 over GF(2) in {elapsed:.1f}s")


def test_criterion_03_infinite_half_degree_6():
    # GF(3) with u = 1 is not in quantum characteristic 2: the regular module
    # and Delta(0) = T(0), a summand of Q there, lie in add(Q)
    t0 = time.perf_counter()
    params = HeckeParams(6, GF(3), 1)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    assert 0 in _tensor_end(q).weights
    for mod in (regular_module(alg), standard_module(params, 0, algebra=alg)):
        res = relative_domdim(mod, q)
        assert res.is_infinite, (mod.label, res)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _pass(3, f"stretch: regular module and Delta(0) at d=6 over GF(3) u=1 are certified infinite in {elapsed:.1f}s")


def test_criterion_04_oracle_tilting_domdim_and_factor_two(setups_d4):
    t0 = time.perf_counter()
    for name in CONFIG_NAMES:
        params, alg, q = setups_d4[name]
        tilt = relative_domdim(standard_module(params, 0, algebra=alg), q)
        assert tilt.kind == "exact" and tilt.value == 2, (name, tilt)  # d/2 at d = 4
        reg = relative_domdim(regular_module(alg), q)
        assert reg.kind == "exact" and reg.value == 2 * tilt.value, (name, reg, tilt)
    elapsed = time.perf_counter() - t0
    _pass(4, f"oracle T(0) domdim == d/2 and regular == 2 * tilting at d=4 in {elapsed:.2f}s")


def test_criterion_05_oracle_standard_chain_degree_4(setups_d4):
    t0 = time.perf_counter()
    for name in CONFIG_NAMES:
        params, alg, q = setups_d4[name]
        got = {
            m: relative_domdim(standard_module(params, m, algebra=alg), q)
            for m in (0, 2, 4)
        }
        for m, want in ((0, 2), (2, 3), (4, 4)):  # m/2 + d/2
            assert got[m].kind == "exact" and got[m].value == want, (name, m, got[m])
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass(5, f"oracle standard chain (4,3,2) for Delta(4),Delta(2),Delta(0) at d=4 in {elapsed:.2f}s")


def test_criterion_06_double_centralizer():
    t0 = time.perf_counter()
    for d in range(2, 6):
        for name in CONFIG_NAMES:
            rep = double_centralizer_report(BLESSED_CONFIGS[name](d))
            assert rep["tl_image_dim"] == catalan(d), (d, name, rep)
            assert rep["commutant_dim"] == comb(d + 3, 3), (d, name, rep)
            assert rep["tl_image_equals_double_commutant"], (d, name)
            assert rep["commutant_closed_under_product"], (d, name)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass(6, f"double centralizer holds for d=2..5, both configs, in {elapsed:.2f}s")


def test_criterion_07_presentations():
    t0 = time.perf_counter()
    for d in range(2, 6):
        for name in CONFIG_NAMES:
            verdicts = _relations_verdicts(d, name, BLESSED_CONFIGS[name](d))
            ids = {v["check_id"] for v in verdicts}
            assert {"tl_relations", "hecke_presentation", "phi_multiplicative", "action_presentation"} <= ids
            if d >= 3:
                assert {"phi_kernel_generators", "action_kernel_generators"} <= ids
            for v in verdicts:
                assert v["pass"], (d, name, v)
    elapsed = time.perf_counter() - t0
    _pass(7, f"presentations, phi and kernel-generator checks pass for d=2..5 in {elapsed:.2f}s")


def test_criterion_08_cover_quality_closed_forms():
    regimes = {
        "field-qchar2": FieldRegime(quantum_char_is_2=True),
        "field-generic": FieldRegime(quantum_char_is_2=False),
        "integral-divisible": IntegralRegime(one_plus_q_unit=False, one_plus_q_zero=True),
        "integral-nondivisible": IntegralRegime(one_plus_q_unit=False, one_plus_q_zero=False),
    }
    t0 = time.perf_counter()
    for label, regime in regimes.items():
        for d in range(2, 49):
            h = hn_dimension(d, regime)
            t = domdim_char_tilting(d, regime)
            if isinstance(regime, FieldRegime):
                if regime.quantum_char_is_2 and d % 2 == 0:
                    assert h == d // 2 - 2, (label, d, h)
                else:
                    assert h is INFINITY, (label, d, h)
            else:
                shift = 2 if regime.partially_divisible else 1
                assert h == t - shift, (label, d, h, t)
    assert hn_dimension(20, regimes["field-qchar2"]) == 8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(8, f"cover quality closed forms for d=2..48 in all four regimes in {elapsed:.3f}s")


def _random_matrix(field, rng, nrows, ncols):
    return Matrix.from_dense(field, rng.integers(0, field.p, size=(nrows, ncols)).astype(np.int64))


def test_criterion_09a_rank_and_kernel_laws():
    rng = np.random.default_rng(9)
    t0 = time.perf_counter()
    for field in (GF2, GF(3), GF5):
        for _ in range(200):
            m, n, k = (int(x) for x in rng.integers(1, 7, size=3))
            a = _random_matrix(field, rng, m, n)
            b = _random_matrix(field, rng, n, k)
            ker = a.kernel_basis_matrix()
            assert a.rank() == a.transpose().rank()
            assert a.rank() + ker.nrows == n
            if ker.nrows:
                assert (a @ ker.transpose()).is_zero()
                assert ker.rank() == ker.nrows
            assert (a @ b).rank() <= min(a.rank(), b.rank())
    elapsed = time.perf_counter() - t0
    _pass(9, f"rank/kernel laws on 200 random instances per field in {elapsed:.2f}s")


def test_criterion_09b_tilting_filtrations_flatten():
    for m in range(2, 66, 2):
        pairs = twisted_filtration(m)
        flat = [w for pair in pairs for w in pair]
        assert sorted(flat) == sorted(tilting_delta_mults(m))
        assert len(set(flat)) == len(flat)
        assert all(b == a + 2 for a, b in pairs)
    _pass(9, "twisted filtrations flatten to the standard multiplicities for m <= 64")


def test_criterion_09c_direct_sum_min_law(setups_d4):
    rng = np.random.default_rng(93)
    t0 = time.perf_counter()
    checked = 0
    for name in CONFIG_NAMES:
        params, alg, q = setups_d4[name]
        pool = [
            (standard_module(params, 0, algebra=alg), 2),
            (standard_module(params, 2, algebra=alg), 3),
            (standard_module(params, 4, algebra=alg), 4),
            (q, INFINITY),
            (regular_module(alg), 4),
        ]
        for _ in range(5):
            i, j = rng.integers(0, len(pool), size=2)
            x, vx = pool[int(i)]
            y, vy = pool[int(j)]
            res = relative_domdim(direct_sum(x, y), q)
            assert res.matches(min(vx, vy)), (name, x.label, y.label, res)
            checked += 1
    assert checked == 10
    elapsed = time.perf_counter() - t0
    _pass(9, f"direct-sum minimum law on 10 random pairs at d=4 in {elapsed:.2f}s")
