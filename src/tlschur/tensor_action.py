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

Every T_s preserves the weight of a word (its number of letters 2), so
V^(tensor d) is the direct sum of its weight spaces V_a.  Intertwiner
systems are solved weight block by weight block: the commutant as the
independent systems Hom(V_a, V_b), the double commutant and hom spaces of
modules on their weight-diagonal entries only.
"""

from __future__ import annotations

import numpy as np

from .hecke import HeckeElement, HeckeParams
from .linalg import Matrix, RowSpace, flatten, reduced_basis, unflatten
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


class CertificationError(RuntimeError):
    """A condition that a certified result rests on failed its check."""


def _weights(n: int) -> np.ndarray:
    """Weight (the number of letters 2) of each basis index of V^(tensor d), n = 2^d."""
    d = n.bit_length() - 1
    if n != 1 << d:
        raise ValueError(f"tensor space has dimension 2^d, got {n}")
    return np.array([bin(i).count("1") for i in range(n)])


def weight_classes(n: int) -> list[list[int]]:
    """Basis indices of V^(tensor d), n = 2^d, grouped by increasing weight."""
    wt = _weights(n)
    return [np.flatnonzero(wt == a).tolist() for a in range(wt.max() + 1)]


def weight_projections(field, n: int) -> list[Matrix]:
    """The projections of V^(tensor d) onto its weight spaces, by increasing weight."""
    wt = _weights(n)
    return [Matrix.from_dense(field, np.diag(wt == a)) for a in range(wt.max() + 1)]


def _weight_diagonal(n: int) -> np.ndarray:
    """Row-major positions (i, j) of an n x n matrix with i and j of equal weight."""
    wt = _weights(n)
    return np.flatnonzero(wt[:, None] == wt[None, :])


def _check_weight_preserving(mats: list[Matrix]) -> None:
    wt = _weights(mats[0].nrows)
    for k, g in enumerate(mats):
        r, c = np.nonzero(g.dense())
        if np.any(wt[r] != wt[c]):
            raise CertificationError(f"generator {k} does not preserve weight")


def intertwiner_system(left: list[Matrix], right: list[Matrix], row_parts=None, col_parts=None):
    """The linear system of a @ X == X @ b over every pair (a, b), and its unknowns.

    Uses the row-major vectorization: vec(a X - X b) = (a kron I - I kron
    b^T) vec(X).  With parts given, X is block diagonal: its k-th block has
    rows row_parts[k] and columns col_parts[k] (each part list must
    partition its side), and only those entries are unknowns.  Output block
    (k, l) of a X - X b is a_kl X_l - X_k b_kl; blocks where both a_kl and
    b_kl vanish give no equation.  Returns (system, coords): coords lists
    the row-major positions of the unknowns in increasing order, one system
    column each; system is None when no equation remains.
    """
    f = left[0].field
    m, n = left[0].nrows, right[0].nrows
    if row_parts is None:
        row_parts, col_parts = [range(m)], [range(n)]
    rp = [np.asarray(list(r), dtype=np.int64) for r in row_parts]
    cp = [np.asarray(list(c), dtype=np.int64) for c in col_parts]
    flat = [(r[:, None] * n + c[None, :]).ravel() for r, c in zip(rp, cp)]
    coords = np.sort(np.concatenate(flat))
    pos = np.full(m * n, -1, dtype=np.int64)
    pos[coords] = np.arange(coords.size)
    unknowns = [pos[x] for x in flat]
    blocks = []
    for a, b in zip(left, right):
        ad = a.dense().astype(np.int64)
        bd = b.dense().astype(np.int64)
        for k in range(len(rp)):
            for l in range(len(rp)):
                akl = ad[np.ix_(rp[k], rp[l])]
                bkl = bd[np.ix_(cp[k], cp[l])]
                if not rp[k].size * cp[l].size or not (akl.any() or bkl.any()):
                    continue
                eq = np.zeros((rp[k].size * cp[l].size, coords.size), dtype=np.int64)
                eq[:, unknowns[l]] += np.kron(akl, np.eye(cp[l].size, dtype=np.int64))
                eq[:, unknowns[k]] -= np.kron(np.eye(rp[k].size, dtype=np.int64), bkl.T)
                blocks.append(eq % f.p)
    if not blocks:
        return None, coords
    return Matrix.from_dense(f, np.concatenate(blocks)), coords


def intertwiner_rows(left: list[Matrix], right: list[Matrix], row_parts=None, col_parts=None, progress=None) -> Matrix:
    """Basis of the matrices X with a @ X == X @ b for every pair (a, b), flattened row-major.

    The system and the parts are those of intertwiner_system; the basis is
    the one kernel_from_rref gives, embedded in the full flattening.
    """
    f = left[0].field
    system, coords = intertwiner_system(left, right, row_parts, col_parts)
    if system is None:
        kernel = Matrix.identity(f, coords.size)
    else:
        if progress:
            progress(f"solving {system.nrows}x{system.ncols} kernel")
        kernel = system.kernel_basis_matrix()
    out = np.zeros((kernel.nrows, left[0].nrows * right[0].nrows), dtype=np.int64)
    out[:, coords] = kernel.dense()
    return Matrix.from_dense(f, out)


def commutant_basis(generators: list[Matrix], progress=None) -> list[Matrix]:
    """Basis of all matrices on V^(tensor d) commuting with every generator.

    Every generator must preserve weight (CertificationError otherwise), so
    the commutant is the direct sum of the intertwiners Hom(V_a, V_b) of the
    restrictions to the weight spaces, one independent system per pair
    (a, b).  The basis is the reverse reduced echelon form of their union,
    which is the basis the full system's kernel_from_rref gives.
    """
    if not generators:
        raise ValueError("need at least one generator")
    f = generators[0].field
    n = generators[0].nrows
    classes = weight_classes(n)
    _check_weight_preserving(generators)
    restricted = [[g.select_rows(idx).select_columns(idx) for g in generators] for idx in classes]
    if progress:
        progress(f"solving {len(classes) ** 2} weight blocks of at most {max(map(len, classes)) ** 2} unknowns")
    rows = []
    for ia, ga in zip(classes, restricted):
        for ib, gb in zip(classes, restricted):
            kernel = intertwiner_rows(ga, gb).dense()
            embedded = np.zeros((kernel.shape[0], n * n), dtype=np.int64)
            embedded[:, (np.array(ia)[:, None] * n + np.array(ib)[None, :]).ravel()] = kernel
            rows.append(embedded)
    return unflatten(reduced_basis(Matrix.from_dense(f, np.concatenate(rows))), n, n)


def algebra_closure_dim(generators: list[Matrix]) -> tuple[int, RowSpace]:
    """Dimension and span of the unital algebra generated by matrices on V^(tensor d).

    The generators must preserve weight (CertificationError otherwise), so
    every product is block diagonal and the span lives on the weight-diagonal
    entries.  On those coordinates right multiplication by g is one linear
    operator, sending entry (i, k) to entry (i, j) with coefficient g[k, j];
    the span of the identity is closed under these operators.  Returns
    (dimension, span on the weight-diagonal entries).
    """
    if not generators:
        raise ValueError("need at least one generator")
    f = generators[0].field
    n = generators[0].nrows
    _check_weight_preserving(generators)
    wt, classes = _weights(n), weight_classes(n)
    ops = []
    for g in generators:
        # the entries (i, k) of row i are those with k of i's weight, in order
        blocks = [g.select_rows(c).select_columns(c) for c in classes]
        ops.append(Matrix.block_diag([blocks[w] for w in wt]))
    diag = _weight_diagonal(n)
    span = RowSpace(f, diag.size)
    span.insert(flatten([Matrix.identity(f, n)]).select_columns(diag))
    span.close(ops)
    return span.dim, span


def double_centralizer_report(params: HeckeParams, progress=None) -> dict:
    """Compare the TL action image with the double commutant on V^(tensor d).

    Returns a JSON-friendly report with the image dimension of the
    Temperley-Lieb action, the commutant dimension, the double commutant
    dimension, and whether the TL image equals the double commutant.
    """
    d = params.d
    n = 1 << d
    classes = weight_classes(n)
    tl_gens = tl_generator_matrices(params)
    if progress:
        progress("closing TL image")
    tl_dim, tl_span = algebra_closure_dim(tl_gens)
    if progress:
        progress("commutant of the TL action")
    comm = commutant_basis(hecke_generator_matrices(params), progress=progress)
    comm_span = RowSpace(params.field, n * n)
    comm_span.insert(flatten(comm))
    if not comm_span.contains(flatten(weight_projections(params.field, n))):
        raise CertificationError("a weight projection is not in the commutant span")
    if progress:
        progress("double commutant")
    # everything commuting with the commutant commutes with the weight
    # projections, so it is block diagonal: the unknowns are the
    # weight-diagonal entries, and the TL image lives there too
    comm2 = intertwiner_rows(comm, comm, classes, classes, progress=progress)
    equal = tl_dim == comm2.nrows and tl_span.contains(comm2.select_columns(_weight_diagonal(n)))
    # products of commutant elements stay in the commutant span, all pairs:
    # vstack(comm) @ b read row-major as k rows is flatten(a @ b) over all a
    k, n2 = len(comm), comm_span.ncols
    stacked = Matrix.vstack(comm)
    closed = comm_span.contains(Matrix.vstack([(stacked @ b).reshape(k, n2) for b in comm]))
    return {
        "d": d,
        "field": params.field.name,
        "u": params.field.fmt(params.u),
        "tl_image_dim": tl_dim,
        "commutant_dim": len(comm),
        "double_commutant_dim": comm2.nrows,
        "tl_image_equals_double_commutant": bool(equal),
        "commutant_closed_under_product": bool(closed),
    }
