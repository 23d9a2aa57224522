"""Command line front end for tables, reports, word arithmetic and verification.

Exit codes: 0 on success or all checks passing, 1 when a requested check
fails, 2 on usage errors.  Output is deterministic for fixed flags: tables
iterate weights in ascending order and JSON objects are key-sorted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .domdim import (
    FieldRegime,
    IntegralRegime,
    classify_projective,
    cover_report,
    encode_extnat,
    hn_batch_csv,
    hn_dimension,
)
from .fields import field_by_name
from .hecke import BLESSED_CONFIGS
from .tl import TLParams, ascii_element, check_relations, word_element
from .weights import (
    decomposition_matrix,
    projective_column,
    tilting_delta_mults,
    twisted_filtration,
)

class SystemExit2(Exception):
    """Usage error surfaced with the parser's usage text and exit code 2."""


RINGS = {
    "field-qchar2": lambda: FieldRegime(quantum_char_is_2=True),
    "field-generic": lambda: FieldRegime(quantum_char_is_2=False),
    # divisible: 1 + q = 0 in the base ring, the 2-partially divisible case
    "integral-divisible": lambda: IntegralRegime(one_plus_q_unit=False, one_plus_q_zero=True),
    "integral-nondivisible": lambda: IntegralRegime(one_plus_q_unit=False, one_plus_q_zero=False),
}


def _even(s: str) -> int:
    v = int(s)
    if v < 0 or v % 2:
        raise argparse.ArgumentTypeError(f"expected a nonnegative even integer, got {s}")
    return v


def _positive(s: str) -> int:
    v = int(s)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {s}")
    return v


def _nonnegative(s: str) -> int:
    v = int(s)
    if v < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {s}")
    return v


def _d_range(s: str) -> tuple[int, int]:
    try:
        lo, hi = s.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a range like 2:48, got {s}")
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {s}")
    return lo, hi


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tlschur",
        description="Invariants of S_q(2,d) and TL_d at quantum characteristic 2",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("decomp", help="decomposition matrix of S(2,d), even d, in characteristic 2 (p = 2)")
    p.add_argument("--d", type=_even, required=True)
    p.add_argument("--format", choices=("csv", "json", "pretty"), default="csv")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("tilting", help="standard multiplicities and twisted filtration of T(m)")
    p.add_argument("--m", type=_nonnegative, required=True)
    p.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("projective", help="column and dominant dimension class of P(m) in characteristic 2 (p = 2)")
    p.add_argument("--d", type=_even, required=True)
    p.add_argument("--m", type=_even, required=True)
    p.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("domdim", help="cover report: regular/tilting dominant dimensions")
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--regime", choices=("field-qchar2", "field-generic"), default="field-qchar2")
    p.add_argument("--format", choices=("json", "pretty"), default="json")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("hn", help="cover quality of the Schur cover of TL_d")
    p.add_argument("--d", type=_positive, default=None)
    p.add_argument("--d-range", type=_d_range, default=None, dest="d_range", metavar="LO:HI")
    p.add_argument("--ring", choices=sorted(RINGS), required=True)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("tl", help="evaluate a generator word in TL_d(delta) and check relations")
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--delta", default=None, help="loop parameter; default -2 matches u = 1")
    p.add_argument("--field", default="QQ", help="QQ or GF(p)")
    p.add_argument("--word", default=None, help='generator word such as "U1 U2 U1"')
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("verify", help="closed forms against the linear-algebra oracle")
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--config", choices=sorted(BLESSED_CONFIGS), required=True)
    p.add_argument("--cap", type=_positive, default=None)
    p.add_argument("--progress", action="store_true")
    p.add_argument("-o", "--output", default=None)

    return ap


def _run_decomp(args) -> int:
    table = decomposition_matrix(args.d)
    if args.format == "csv":
        _emit(table.to_csv(), args.output)
    elif args.format == "json":
        _emit(table.to_json() + "\n", args.output)
    else:
        _emit(table.pretty(), args.output)
    return 0


def _run_tilting(args) -> int:
    mults = sorted(tilting_delta_mults(args.m))
    pairs = None
    if args.m >= 2 and args.m % 2 == 0:
        pairs = [list(p) for p in twisted_filtration(args.m)]
    if args.format == "json":
        _emit(_jdump({"m": args.m, "standard_weights": mults, "twisted_filtration": pairs}), args.output)
    elif args.format == "csv":
        lines = ["kind,values"]
        lines.append("standard," + " ".join(str(w) for w in mults))
        for a, b in pairs or []:
            lines.append(f"pair,{a} {b}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        out = [f"T({args.m}) standard factors: " + " ".join(str(w) for w in mults)]
        if pairs is not None:
            out.append("twisted filtration pairs: " + " ".join(f"({a},{b})" for a, b in pairs))
        _emit("\n".join(out) + "\n", args.output)
    return 0


def _run_projective(args) -> int:
    col = sorted(projective_column(args.d, args.m))
    cls = classify_projective(args.d, args.m)
    val = encode_extnat(cls.value)
    if args.format == "json":
        _emit(
            _jdump({"d": args.d, "m": args.m, "column": col, "column_size": cls.column_size, "domdim": val}),
            args.output,
        )
    elif args.format == "csv":
        _emit(f"d,m,column,column_size,domdim\n{args.d},{args.m},{' '.join(map(str, col))},{cls.column_size},{val}\n", args.output)
    else:
        _emit(
            f"P({args.m}) in degree {args.d}: column weights {col}, size {cls.column_size}, dominant dimension {val}\n",
            args.output,
        )
    return 0


def _run_domdim(args) -> int:
    rep = cover_report(args.d, RINGS[args.regime]())
    if args.format == "pretty":
        lines = [f"{k}: {rep[k]}" for k in sorted(rep)]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(_jdump(rep), args.output)
    return 0


def _run_hn(args) -> int:
    if (args.d is None) == (args.d_range is None):
        raise SystemExit2("hn needs exactly one of --d or --d-range")
    regime = RINGS[args.ring]()
    if args.d_range:
        lo, hi = args.d_range
        lo = max(lo, 2)
        _emit(hn_batch_csv(lo, hi, regime), args.output)
    else:
        _emit(f"{encode_extnat(hn_dimension(args.d, regime))}\n", args.output)
    return 0


def _parse_word(s: str) -> list[int]:
    out = []
    for tok in s.replace(",", " ").split():
        t = tok.lower().lstrip("u")
        if not t.isdigit():
            raise SystemExit2(f"bad generator token {tok!r}; expected U<i> or <i>")
        out.append(int(t))
    return out


def _run_tl(args) -> int:
    field = field_by_name(args.field)
    if args.delta is None:
        delta = field.coerce(-2)
    else:
        try:
            delta = field.parse(args.delta)
        except (ValueError, ZeroDivisionError) as exc:
            raise SystemExit2(f"bad --delta {args.delta!r}: {exc}")
    params = TLParams(args.d, delta, field)
    rep = check_relations(params)
    lines = [
        f"TL_{args.d}(delta={field.fmt(params.delta)}) over {field.name}: "
        f"{rep.checked} relations checked, {len(rep.violations)} violations"
    ]
    lines.extend(f"  violated: {v}" for v in rep.violations)
    if args.word is not None:
        word = _parse_word(args.word)
        for i in word:
            if not 1 <= i <= args.d - 1:
                raise SystemExit2(f"generator index {i} out of range 1..{args.d - 1}")
        el = word_element(params, word)
        lines.append("word " + " ".join(f"U{i}" for i in word) + " =")
        lines.append(ascii_element(el).rstrip("\n"))
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if rep.ok else 1


def _run_verify(args) -> int:
    from .oracle import verify_suite

    progress = (lambda msg: print(f"# {msg}", file=sys.stderr, flush=True)) if args.progress else None
    verdicts = verify_suite(args.d, args.config, cap=args.cap, progress=progress)
    verdicts = sorted(verdicts, key=lambda v: v["check_id"])
    text = "".join(_jdump(v) for v in verdicts)
    _emit(text, args.output)
    return 0 if all(v["pass"] for v in verdicts) else 1


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "decomp": _run_decomp,
        "tilting": _run_tilting,
        "projective": _run_projective,
        "domdim": _run_domdim,
        "hn": _run_hn,
        "tl": _run_tl,
        "verify": _run_verify,
    }
    try:
        return handlers[args.cmd](args)
    except SystemExit2 as exc:
        print(ap.format_usage(), file=sys.stderr, end="")
        print(f"tlschur {args.cmd}: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(ap.format_usage(), file=sys.stderr, end="")
        print(f"tlschur {args.cmd}: error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
