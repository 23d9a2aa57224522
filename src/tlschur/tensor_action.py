"""Right action of the Hecke algebra on tensor space and its commutant.

V is 2-dimensional with basis e1, e2; the basis of V^(tensor d) is indexed
by words in {1,2} of length d, ordered lexicographically with 1 < 2.  Index
n encodes the word whose t-th letter (1-based) is 1 + bit, where bit is the
(d-t)-th binary digit of n, so index order equals word order.

Vectors are rows and matrices act on the right: act(xy) = act(x) @ act(y).
The generator T_s acts on a basis word by the letter pair at positions
(s, s+1): equal letters scale by u, an ascent (1,2) swaps the letters, and
a descent (2,1) swaps plus (u - u^(-1)) times the original word.  The
Temperley-Lieb generator acts as U_s = T_s - u.  The convention is locked
by the regression that every kernel generator of the Hecke-to-TL surjection
acts as zero.
"""

from __future__ import annotations

from .hecke import HeckeElement, HeckeParams
from .linalg import Matrix, RowSpace, flatten, unflatten
from .permutations import Permutation


def basis_word(d: int, n: int) -> tuple[int, ...]:
    """Word in {1,2} of length d encoded by index n, most significant letter first."""
    return tuple(1 + ((n >> (d - t)) & 1) for t in range(1, d + 1))


def word_index(word) -> int:
    n = 0
    for letter in word:
        n = (n << 1) | (letter - 1)
    return n


def hecke_action(params: HeckeParams, s: int) -> Matrix:
    """Matrix of the right action of T_s on V^(tensor d)."""
    d = params.d
    if not 1 <= s <= d - 1:
        raise ValueError(f"generator index {s} out of range for degree {d}")
    f = params.field
    u = params.u
    shift = f.sub(u, params.u_inv)
    n = 1 << d
    hi = d - s  # bit position of letter s (1-based from the left)
    lo = d - s - 1  # bit position of letter s+1
    rows = []
    for idx in range(n):
        row = [f.zero] * n
        a = (idx >> hi) & 1
        b = (idx >> lo) & 1
        if a == b:
            row[idx] = u
        else:
            swapped = idx ^ (1 << hi) ^ (1 << lo)
            if a < b:
                row[swapped] = f.add(row[swapped], f.one)
            else:
                row[idx] = shift
                row[swapped] = f.add(row[swapped], f.one)
        rows.append(row)
    return Matrix.from_rows(f, rows)


def tl_action(params: HeckeParams, s: int) -> Matrix:
    """Matrix of the Temperley-Lieb generator U_s = T_s - u on V^(tensor d)."""
    f = params.field
    n = 1 << params.d
    return hecke_action(params, s) - Matrix.identity(f, n).scale(params.u)


def permutation_action(params: HeckeParams, w: Permutation) -> Matrix:
    """Matrix of T_w, multiplied out along a reduced word."""
    f = params.field
    acc = Matrix.identity(f, 1 << params.d)
    for i in w.reduced_word():
        acc = acc @ hecke_action(params, i)
    return acc


def element_action(x: HeckeElement) -> Matrix:
    """Matrix of a general Hecke element."""
    p = x.params
    f = p.field
    n = 1 << p.d
    acc = Matrix.zeros(f, n, n)
    for w, c in x.coeffs.items():
        acc = acc + permutation_action(p, w).scale(c)
    return acc


def tl_generator_matrices(params: HeckeParams) -> list[Matrix]:
    return [tl_action(params, s) for s in range(1, params.d)]


def hecke_generator_matrices(params: HeckeParams) -> list[Matrix]:
    return [hecke_action(params, s) for s in range(1, params.d)]


def intertwiners(left: list[Matrix], right: list[Matrix], progress=None) -> list[Matrix]:
    """Basis of the matrices X with a @ X == X @ b for every pair (a, b).

    Solves by elimination on the row-major vectorization: vec(a X - X b) =
    (a kron I - I kron b^T) vec(X), so X runs over the kernel of the stacked
    operators, one block per pair.
    """
    f = left[0].field
    m, n = left[0].nrows, right[0].nrows
    eye_m = Matrix.identity(f, m)
    eye_n = Matrix.identity(f, n)
    blocks = []
    for k, (a, b) in enumerate(zip(left, right)):
        if progress:
            progress(f"commutant constraint {k + 1}/{len(left)}")
        blocks.append(a.kron(eye_n) - eye_m.kron(b.transpose()))
    system = Matrix.vstack(blocks)
    if progress:
        progress(f"solving {system.nrows}x{system.ncols} kernel")
    return unflatten(system.kernel_basis_matrix(), m, n)


def commutant_basis(generators: list[Matrix], progress=None) -> list[Matrix]:
    """Basis of all matrices commuting with every generator.

    The result is closed under products by construction and the closure is
    verified by the caller's tests.
    """
    assert generators, "need at least one generator"
    return intertwiners(generators, generators, progress=progress)


def matrix_span(mats: list[Matrix]) -> RowSpace:
    sp = RowSpace(mats[0].field, mats[0].nrows * mats[0].ncols)
    sp.insert(flatten(mats))
    return sp


def algebra_closure_dim(generators: list[Matrix], cap: int | None = None) -> tuple[int, list[Matrix]]:
    """Dimension and basis of the unital matrix algebra generated by the inputs.

    Repeatedly multiplies the current spanning set by the generators until
    the span stabilizes.  Returns (dimension, list of independent products).
    """
    f = generators[0].field
    n = generators[0].nrows
    sp = RowSpace(f, n * n)
    basis: list[Matrix] = []

    def try_add(m: Matrix) -> bool:
        if sp.insert(flatten([m])):
            basis.append(m)
            return True
        return False

    try_add(Matrix.identity(f, n))
    for g in generators:
        try_add(g)
    frontier = list(basis)
    while frontier:
        new: list[Matrix] = []
        for m in frontier:
            for g in generators:
                prod = m @ g
                if try_add(prod):
                    new.append(prod)
                if cap is not None and len(basis) > cap:
                    raise RuntimeError("algebra closure exceeded cap")
        frontier = new
    return len(basis), basis


def double_centralizer_report(params: HeckeParams, progress=None) -> dict:
    """Compare the TL action image with the double commutant on V^(tensor d).

    Returns a JSON-friendly report with the image dimension of the
    Temperley-Lieb action, the commutant dimension, the double commutant
    dimension, and whether the TL image equals the double commutant.
    """
    d = params.d
    tl_gens = tl_generator_matrices(params)
    if progress:
        progress("closing TL image")
    tl_dim, tl_basis = algebra_closure_dim(tl_gens)
    if progress:
        progress("commutant of the TL action")
    comm = commutant_basis(hecke_generator_matrices(params), progress=progress)
    if progress:
        progress("double commutant")
    comm2 = commutant_basis(comm, progress=progress)
    tl_span = matrix_span(tl_basis)
    c2_span = matrix_span(comm2)
    equal = tl_span.dim == c2_span.dim and tl_span.contains(flatten(comm2))
    # products of commutant elements stay in the commutant span, all pairs:
    # vstack(comm) @ b read row-major as k rows is flatten(a @ b) over all a
    comm_span = matrix_span(comm)
    k, n2 = len(comm), comm_span.ncols
    stacked = Matrix.vstack(comm)
    closed = comm_span.contains(Matrix.vstack([(stacked @ b).reshape(k, n2) for b in comm]))
    return {
        "d": d,
        "field": params.field.name,
        "u": params.field.fmt(params.u),
        "tl_image_dim": tl_dim,
        "commutant_dim": len(comm),
        "double_commutant_dim": len(comm2),
        "tl_image_equals_double_commutant": bool(equal),
        "commutant_closed_under_product": bool(closed),
    }
