import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tlschur
from tlschur import oracle
from tlschur.linalg import Matrix, flatten, kernel_from_rref, unflatten


def _cokernel_projection(R: Matrix, rank: int, pivots: tuple) -> tuple[Matrix, Matrix]:
    """Projection onto the quotient by the row space of an rref, and a section.

    The projection pi has the kernel basis of R as columns, and the section
    sigma picks the free coordinates, so sigma @ pi is the identity.
    """
    pi_m = kernel_from_rref(R, rank, pivots).transpose()
    if not (R.select_rows(range(rank)) @ pi_m).is_zero():
        raise oracle.CertificationError("projection does not kill the image")
    pivset = set(pivots)
    free = [j for j in range(R.ncols) if j not in pivset]
    sigma = Matrix.identity(R.field, R.ncols).select_rows(free)
    return pi_m, sigma


def _cokernel_module(m, q, R: Matrix, rank: int, pivots: tuple) -> oracle.ExplicitModule:
    """The cokernel of a module map m -> Q^g whose stacked rows have the rref R, as a module."""
    pi, sigma = _cokernel_projection(R, rank, pivots)
    blocks = [sigma.select_columns(range(s * q.dim, (s + 1) * q.dim)) for s in range(R.ncols // q.dim)]
    return oracle.ExplicitModule(m.algebra, [Matrix.hstack([b @ a for b in blocks]) @ pi for a in q.actions])


@pytest.fixture(scope="session")
def dense_intertwiners():
    """The full-system solve of a X = X b: the reference the weight-graded solvers must match bit for bit.

    vec(a X - X b) = (a kron I - I kron b^T) vec(X) row-major, one block per
    pair, stacked and solved through kernel_basis_matrix on all m*n unknowns.
    """

    def solve(left, right):
        f = left[0].field
        m, n = left[0].nrows, right[0].nrows
        eye_m, eye_n = Matrix.identity(f, m), Matrix.identity(f, n)
        system = Matrix.vstack([a.kron(eye_n) - eye_m.kron(b.transpose()) for a, b in zip(left, right)])
        return unflatten(system.kernel_basis_matrix(), m, n)

    return solve


@pytest.fixture(scope="session")
def dense_split():
    """The flat split test: Hom(Q, M) from hom_space and the full (dim M)^2 retraction system.

    Whether some combination of F_k o X_j over the maps F_k: M -> Q and a
    hom basis X_j of Hom(Q, M) equals the identity, that is, whether the
    stacked map M -> Q^g is a split monomorphism.
    """

    def split(f_components, cur, q):
        hom_back = unflatten(oracle.hom_space(q, cur), q.dim, cur.dim)
        if not hom_back:
            return False
        system = flatten(F @ B for F in f_components for B in hom_back).transpose()
        ident = flatten([Matrix.identity(cur.algebra.field, cur.dim)]).transpose()
        return system.solve_many(ident) is not None

    return split


@pytest.fixture(scope="session")
def universal_domdim(dense_split):
    """relative_domdim through universal approximations: the reference for the minimal ones.

    Each step maps M to Q^h by a whole basis of Hom(M, Q): the verdict is
    the step count when that map is not injective and infinity when it
    splits (dense_split); otherwise its cokernel is the next module.
    Returns the encoded verdict, ">=cap" when cap steps stay injective.
    """

    def run(m, q, cap):
        for steps in range(cap):
            homs = unflatten(oracle.hom_space(m, q), m.dim, q.dim)
            if not homs:
                return steps
            R, rank, pivots = Matrix.hstack(homs).rref()
            if rank < m.dim:
                return steps
            if dense_split(homs, m, q):
                return "infinity"
            m = _cokernel_module(m, q, R, rank, pivots)
        return f">={cap}"

    return run


@pytest.fixture(scope="session")
def reference_cokernels():
    """The cokernels of the minimal add(Q)-approximations of m, built as modules inside Q^g.

    The reference for the dims and hom spaces that relative_domdim reads
    without building modules.  Each step lifts the top of hom_space(M, Q)
    (oracle._top_lifts) to maps F_s e_s into summands Q e_s, embeds their
    sum in Q^g with the complements Q(1 - e_s) beside the image, and takes
    the cokernel of M -> Q^g with action matrices.  It stops when an
    approximation is not injective or is an isomorphism, when a cokernel
    has no maps to Q, or after cap cokernels; returns the cokernels in order.
    """

    def chain(m, q, cap):
        end = oracle._tensor_end(q)
        f, dq = q.algebra.field, q.dim
        tops = [end.tops.select_columns(range(k * dq, (k + 1) * dq)) for k in range(len(end.weights))]
        complements = [oracle._row_basis(Matrix.identity(f, dq) - e) for e in tops]
        out = []
        while len(out) < cap:
            maps = unflatten(oracle.hom_space(m, q), m.dim, q.dim)
            if not maps:
                break
            picks = oracle._top_lifts(flatten(maps), end.tops, end.radical, end.corners)
            beside = Matrix.block_diag([complements[k] for k, _ in picks])
            R, rank, pivots = Matrix.vstack([Matrix.hstack([maps[i] @ tops[k] for k, i in picks]), beside]).rref()
            if rank < m.dim + beside.nrows or rank == R.ncols:
                break
            m = _cokernel_module(m, q, R, rank, pivots)
            out.append(m)
        return out

    return chain


@pytest.fixture(scope="session")
def post_composition_action():
    """Post-composition with End(Q) in hom-basis coordinates, via one linear solve.

    The reference for the top lifts' flat coordinates: row i, column block l
    holds the coordinates of homs[i] o end_q[l] over the basis homs.
    """

    def action(homs, end_q):
        h, e = len(homs), len(end_q)
        bcols = flatten(homs).transpose()
        pcols = flatten(hm @ em for hm in homs for em in end_q).transpose()
        coords = bcols.solve_many(pcols)
        if coords is None:
            raise oracle.CertificationError("post-composition left the hom space")
        return coords.transpose().reshape(h, e * h)

    return action


@pytest.fixture(scope="session")
def solved_structure_constants():
    """Structure constants by one solve of all dim^2 products against the basis.

    The reference for the oracle's pivot read-off, which must match it bit
    for bit: returns (c, unit, extra rows) with b_i b_j = sum_k c[i,j,k] b_k,
    or None if a product or an extra matrix leaves the span.
    """

    def solve(field, basis, extra=()):
        dim = len(basis)
        bmat = flatten(basis).transpose()
        sol = bmat.solve_many(flatten(a @ b for a in basis for b in basis).transpose())
        usol = bmat.solve_many(flatten([Matrix.identity(field, basis[0].nrows), *extra]).transpose())
        if sol is None or usol is None:
            return None
        c = sol.dense().astype(np.int64).reshape(dim, dim, dim).transpose(1, 2, 0)
        unit = tuple(usol.entry(i, 0) for i in range(dim))
        return c, unit, usol.transpose().select_rows(range(1, 1 + len(extra)))

    return solve


@pytest.fixture(scope="session")
def wide_intertwiner_system():
    """The int64 build of a X = X b on block-diagonal unknowns, one equation block per nonzero pair of blocks.

    The whole system that tensor_action.presented_hom never forms; returns
    the reduced Matrix, or None when no equation remains.
    """

    def build(left, right, row_parts, col_parts):
        f = left[0].field
        n = right[0].nrows
        flat = [(np.asarray(r)[:, None] * n + np.asarray(c)[None, :]).ravel() for r, c in zip(row_parts, col_parts)]
        coords = np.sort(np.concatenate(flat))
        unknowns = [np.searchsorted(coords, x) for x in flat]
        blocks = []
        for a, b in zip(left, right):
            ad, bd = a.dense().astype(np.int64), b.dense().astype(np.int64)
            for k, (rk, ck) in enumerate(zip(row_parts, col_parts)):
                for l, (rl, cl) in enumerate(zip(row_parts, col_parts)):
                    akl, bkl = ad[np.ix_(rk, rl)], bd[np.ix_(ck, cl)]
                    if not len(rk) * len(cl) or not (akl.any() or bkl.any()):
                        continue
                    eq = np.zeros((len(rk) * len(cl), coords.size), dtype=np.int64)
                    eq[:, unknowns[l]] += np.kron(akl, np.eye(len(cl), dtype=np.int64))
                    eq[:, unknowns[k]] -= np.kron(np.eye(len(rk), dtype=np.int64), bkl.T)
                    blocks.append(eq)
        return Matrix.from_dense(f, np.concatenate(blocks)) if blocks else None

    return build


@pytest.fixture(scope="session")
def wide_kernel(wide_intertwiner_system):
    """The kernel of wide_intertwiner_system on its unknowns: the basis presented_hom must give bit for bit."""

    def kernel(left, right, row_parts, col_parts):
        system = wide_intertwiner_system(left, right, row_parts, col_parts)
        if system is None:
            return Matrix.identity(left[0].field, sum(len(r) * len(c) for r, c in zip(row_parts, col_parts)))
        return system.kernel_basis_matrix()

    return kernel


@pytest.fixture
def traced_peak_mb():
    """Run fn(*args) under tracemalloc: (result, peak MiB allocated during the call).

    numpy reports every array buffer to tracemalloc, so the peak counts the
    dense arrays the call builds, deterministically: memory held before the
    call is not counted.
    """

    def run(fn, *args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            out = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        return out, (peak - base) / 2**20

    return run


def _run_python(code: str, *flags: str) -> list[str]:
    """Run a code string in a fresh interpreter with this package importable: stdout words, then stderr."""
    src = str(Path(tlschur.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    return out.stdout.split() + [out.stderr]


@pytest.fixture(scope="session")
def run_python():
    """Run a code string in a fresh interpreter, so that its imports are its own: stdout words, then stderr."""
    return _run_python


@pytest.fixture(scope="session")
def run_optimized():
    """Run a code string under python -O with this package importable: stdout words, then stderr."""
    return lambda code: _run_python(code, "-O")
