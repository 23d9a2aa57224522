"""Benchmark the elimination kernels.

Times gf2_rref, gf2_matmul, gfp_rref and gfp_charpoly on random inputs of
the requested sizes and prints one best-of time per (kernel, size).  Fixed
cases follow.  The first two are gfp_rref on d=5 End(Q) intertwiner systems
over GF(5), sparse systems whose fill-in random dense squares do not show:

* the dense 2048x1024 system a (x) I - I (x) a^T on all 32^2 unknowns.  The
  oracle no longer solves it (hom_space solves per weight); it stays as an
  anchor for the dense kernel.
* the weight-graded system that hom_space(Q, Q) solves, on Q's own basis of
  words and its weight parts: only the C(10, 5) = 252 entries between words
  of one weight are unknowns, in one gfp_rref.

The next ones time the layer above the kernels, the build of the d=5
double-commutant system (2324x252, one call on the six weight classes) by
tensor_action.intertwiner_system, for both blessed configs.  The next ones
time the whole commutant_basis at d=5 and d=6 for both blessed configs: one
stabiliser system per weight pair, each map extended along a tree and
certified.  The next ones time hom_space(Q, Q) at d=5 and d=6 for both
blessed configs, the solve with its certificate, and then the certificate
alone: every End(Q) map checked against the generator actions.  The next
ones time the split of End(Q) alone at d=5 and d=6 for both blessed
configs: oracle._split_end on the precomputed hom_space(Q, Q), through the
action on the weight tops of Q, with its certificates, the radical and the
corners.  The last ones time the
coresolution steps of the regular module at d=6 for both blessed configs:
relative_domdim with End(Q) already built and cached on Q, so only the
minimal approximations and their cokernels' hom spaces count.

Usage:
    python3 benchmarks/bench_kernels.py [--sizes 256,512,1024] [--p 5] [--repeats 5]
"""

import argparse
import time

import numpy as np

from tlschur import BLESSED_CONFIGS, regular_module, relative_domdim, schur_algebra, tensor_module
from tlschur import _kernels as K
from tlschur.linalg import Matrix
from tlschur.oracle import _check_module_maps, _split_end, _tensor_end, hom_space
from tlschur.tensor_action import (
    commutant_basis,
    hecke_generator_matrices,
    intertwiner_system,
    weight_classes,
)


def bench_case(label: str, make_args, fn, repeats: int) -> tuple[str, float]:
    """Best-of time of fn on a fresh copy of the same input; best-of is robust to scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*make_args())
        best = min(best, time.perf_counter() - t0)
    return label, best


def inv_table(p: int) -> np.ndarray:
    inv = np.zeros(p, dtype=np.int64)
    for x in range(1, p):
        inv[x] = pow(x, p - 2, p)
    return inv


def endq_system() -> np.ndarray:
    """The dense End(Q) system a (x) I - I (x) a^T over the generator actions on Q, d=5, gf5-u2."""
    acts = tensor_module(schur_algebra(BLESSED_CONFIGS["gf5-u2"](5))).generator_actions()
    eye = Matrix.identity(acts[0].field, acts[0].nrows)
    return Matrix.vstack([a.kron(eye) - eye.kron(a.transpose()) for a in acts]).dense()


def graded_endq_system() -> np.ndarray:
    """The weight-graded End(Q) system that hom_space(Q, Q) solves, d=5, gf5-u2, in its narrow integer type."""
    q = tensor_module(schur_algebra(BLESSED_CONFIGS["gf5-u2"](5)))
    acts, parts = q.generator_actions(), q.weight_parts()
    system, _ = intertwiner_system(acts, acts, parts, parts)
    return system


def double_commutant_input(config: str) -> tuple:
    """intertwiner_system arguments of the d=5 double commutant."""
    classes = weight_classes(32)
    comm = schur_algebra(BLESSED_CONFIGS[config](5)).basis
    return comm, comm, classes, classes


def tensor_with_end(config: str, d: int):
    """Q = V^(tensor d) with End(Q) and its split built, so relative_domdim runs only its steps."""
    q = tensor_module(schur_algebra(BLESSED_CONFIGS[config](d)))
    _tensor_end(q)
    return q


def main():
    ap = argparse.ArgumentParser(description="elimination kernel timings")
    ap.add_argument("--sizes", default="256,512,1024", help="comma separated square sizes")
    ap.add_argument("--p", type=int, default=5, help="odd prime for the GF(p) kernels")
    ap.add_argument("--charpoly-size", type=int, default=192, dest="charpoly_size")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",") if s]
    p = args.p
    rng = np.random.default_rng(args.seed)
    inv = inv_table(p)

    rows = []
    for n in sizes:
        bits = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
        packed = K.pack_rows(bits)
        ints = rng.integers(0, p, size=(n, n)).astype(np.int64)
        rows.append(bench_case(f"gf2_rref {n}x{n}", lambda: (packed.copy(), n), K.gf2_rref, args.repeats))
        rows.append(
            bench_case(
                f"gf2_matmul {n}x{n}",
                lambda: (packed, n, packed, np.zeros_like(packed)),
                K.gf2_matmul,
                args.repeats,
            )
        )
        rows.append(bench_case(f"gfp_rref p={p} {n}x{n}", lambda: (ints.copy(), p, inv), K.gfp_rref, args.repeats))

    m = args.charpoly_size
    square = rng.integers(0, p, size=(m, m)).astype(np.int64)
    rows.append(
        bench_case(f"gfp_charpoly p={p} {m}x{m}", lambda: (square.copy(), p, inv), K.gfp_charpoly, args.repeats)
    )

    inv5 = inv_table(5)
    for label, system in (("End(Q)", endq_system()), ("graded End(Q)", graded_endq_system().astype(np.int64) % 5)):
        rows.append(
            bench_case(
                f"gfp_rref p=5 {label} d=5 {system.shape[0]}x{system.shape[1]}",
                lambda: (system.copy(), 5, inv5),
                K.gfp_rref,
                args.repeats,
            )
        )

    for config in BLESSED_CONFIGS:
        system_args = double_commutant_input(config)
        label = f"intertwiner_system {config} double commutant d=5"
        rows.append(bench_case(label, lambda: system_args, intertwiner_system, args.repeats))

    for config, make in BLESSED_CONFIGS.items():
        for d in (5, 6):
            gens = hecke_generator_matrices(make(d))
            rows.append(bench_case(f"commutant_basis {config} d={d}", lambda: (gens,), commutant_basis, args.repeats))

    for config, make in BLESSED_CONFIGS.items():
        for d in (5, 6):
            q = tensor_module(schur_algebra(make(d)))
            end_q, gens = hom_space(q, q), q.generator_actions()
            label = f"hom_space(Q, Q) {config} d={d} {end_q.nrows} maps"
            rows.append(bench_case(label, lambda: (q, q), hom_space, args.repeats))
            label = f"End(Q) certificate {config} d={d} {end_q.nrows} maps"
            certify = (end_q, gens, gens, "not an endomorphism")
            rows.append(bench_case(label, lambda: certify, _check_module_maps, args.repeats))
            label = f"End(Q) split {config} d={d} {end_q.nrows} maps"
            rows.append(bench_case(label, lambda: (q, end_q), _split_end, args.repeats))

    for config in BLESSED_CONFIGS:
        q = tensor_with_end(config, 6)
        label = f"relative_domdim steps {config} regular d=6"
        rows.append(bench_case(label, lambda: (regular_module(q.algebra), q), relative_domdim, args.repeats))

    width = max(len(case) for case, _ in rows)
    print(f"{'case':<{width}}  {'time (ms)':>12}")
    for case, secs in rows:
        print(f"{case:<{width}}  {secs * 1e3:12.2f}")


if __name__ == "__main__":
    main()
