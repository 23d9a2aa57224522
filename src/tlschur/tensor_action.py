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
V^(tensor d) is the direct sum of its weight spaces V_a, spanned by the
words reached from 1^(d-a) 2^a by swapping letters.  The commutant is solved
per weight pair through that first word; hom spaces, the double commutant
among them, through a presentation of the source by a few basis words.
"""

from __future__ import annotations

import numpy as np

from ._kernels import gfp_matmul
from .hecke import HeckeElement, HeckeParams
from .linalg import Matrix, RowSpace, kernel_from_rref, reduced_basis, unflatten
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
    f, u = params.field, params.u
    idx = np.arange(1 << d)
    hi = d - s  # bit position of letter s (1-based from the left)
    lo = d - s - 1  # bit position of letter s+1
    a, b = (idx >> hi) & 1, (idx >> lo) & 1
    dense = np.zeros((idx.size, idx.size), dtype=np.int64)
    # u on equal letters, u - u^(-1) on descents (2, 1), and 1 at the swapped word where the letters differ
    dense[idx, idx] = np.where(a == b, u, np.where(a > b, f.sub(u, params.u_inv), 0))
    differ = idx[a != b]
    dense[differ, differ ^ (1 << hi) ^ (1 << lo)] = 1
    return Matrix.from_dense(f, dense)


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


def _weight_blocks(mats: list[Matrix]):
    """(a, b, the blocks (a, b) of the matrices, one flattened row-major per row) for every pair of weights."""
    n = mats[0].nrows
    order = np.argsort(_weights(n), kind="stable")
    ends = np.cumsum([0] + [len(c) for c in weight_classes(n)])
    dense = np.stack([m.dense() for m in mats])[:, order[:, None], order]  # rows and columns in weight order
    for a, b in np.ndindex(len(ends) - 1, len(ends) - 1):
        yield a, b, dense[:, ends[a] : ends[a + 1], ends[b] : ends[b + 1]].reshape(len(mats), -1)


def structure_constants(basis: list[Matrix]):
    """Structure constants of a basis of matrices on V^(tensor d) like commutant_basis gives, block by block.

    Block (a, b) of an n x n matrix, n = 2^d, holds its entries in rows of
    weight a and columns of weight b, read row-major.  Two properties of
    the basis are certified (CertificationError otherwise): every matrix is
    nonzero on exactly one block, and the members of each block are
    reduced: at the last nonzero entry of each member, its own column, the
    members' entries form the identity.  So they are independent, and a
    coordinate is an entry: x on block (a, c) is in their span iff x = y @
    members with y the entries of x at their own columns, certified by
    multiplying back; on a block without members x must vanish.  The
    identity and the weight projections are read first (CertificationError
    if one is outside the span).  Then each block (a, c) is read once, one
    target at a time, from the products over every middle weight b of all
    members of (a, b) times all of (b, c) (RuntimeError if one is outside
    the span).  Every product mod p is _kernels.gfp_matmul, which alone
    bounds the primes accepted.  Returns the structure constants s with
    b_i b_j = sum_k s[i,j,k] b_k, the coordinates of the identity and the
    coordinate rows of the weight projections, by increasing weight.
    """
    f, n, dim = basis[0].field, basis[0].nrows, len(basis)
    p = f.p
    sizes = [len(c) for c in weight_classes(n)]
    members = {}  # (a, b) -> (indices, their blocks in float64, own columns)
    count = np.zeros(dim, dtype=np.int64)
    for a, b, x in _weight_blocks(basis):
        idx = np.flatnonzero(x.any(axis=1))
        count[idx] += 1
        if idx.size:
            members[a, b] = idx, x[idx].astype(np.float64), x.shape[1] - 1 - np.argmax(x[idx, ::-1] != 0, axis=1)
    if (count != 1).any():
        raise CertificationError("a basis matrix is not nonzero on exactly one weight block")
    if any(not np.array_equal(x[:, own], np.eye(len(own))) for _, x, own in members.values()):
        raise CertificationError("the basis is not reduced on a weight block, or it is linearly dependent")

    def read(a, c, x):  # coordinates of the rows x of block (a, c) in its members, or None off their span
        if (a, c) not in members:
            return None if x.any() else np.zeros((x.shape[0], 0), dtype=np.int64)
        _, span, own = members[a, c]
        y = x[:, own]
        return y if np.array_equal(gfp_matmul(y, span, p), x) else None

    rows = np.zeros((1 + len(sizes), dim), dtype=np.int64)
    for a, b, x in _weight_blocks([Matrix.identity(f, n), *weight_projections(f, n)]):
        y = read(a, b, x)
        if y is None:
            raise CertificationError("the identity or a weight projection is not in the span of the basis")
        if y.size:
            rows[:, members[a, b][0]] = y
    # the (b, c) blocks of the members side by side: the right factor of every product through weight b
    sides = {(b, c): z.reshape(-1, sizes[b], sizes[c]).transpose(1, 0, 2).reshape(sizes[b], -1)
             for (b, c), (_, z, _) in members.items()}
    s = np.zeros((dim, dim, dim), dtype=np.int64)
    for a, c in np.ndindex(len(sizes), len(sizes)):
        parts = []  # over every middle weight b: the members of (a, b) and (b, c), and their products
        for b in range(len(sizes)):
            if (a, b) in members and (b, c) in members:
                (left, x, _), right = members[a, b], members[b, c][0]
                prod = gfp_matmul(x.reshape(-1, sizes[b]), sides[b, c], p).reshape(left.size, sizes[a], right.size, -1)
                parts.append((left, right, prod.transpose(0, 2, 1, 3).reshape(left.size * right.size, -1)))
        if not parts:
            continue
        y = read(a, c, np.concatenate([z for _, _, z in parts]))
        if y is None:
            raise RuntimeError("matrix products leave the span of the basis; algebra is not closed")
        cuts = np.cumsum([z.shape[0] for _, _, z in parts])[:-1]
        for (left, right, _), z in zip(parts, np.split(y, cuts) if y.size else ()):  # (a, c) without members: none
            s[np.ix_(left, right, members[a, c][0])] = z.reshape(left.size, right.size, -1)
    return s, tuple(int(v) for v in rows[0]), Matrix.from_dense(f, rows[1:])


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


def presented_hom(left: list[Matrix], right: list[Matrix], row_parts, col_parts, progress=None):
    """Basis of the module maps X: M -> N, solved through a presentation of M by a few of its basis words.

    left[j], right[j] act on M and N as the j-th element a_j of a basis of an
    algebra S; row_parts[b], col_parts[b] index M e_b and N e_b for
    orthogonal idempotents e_b of S with sum 1 (0/1 diagonals on both bases).
    Words w of M, largest part first and then by index, are kept while their
    rows e_w a_j raise the rank of one RowSpace, until they span M
    (CertificationError if they never do).  They present M: P1 -> sum_i
    e_(a_i) S -> M -> 0, and Hom(-, N) is left exact with Hom(e_a S, N) =
    N e_a, so the unknowns are the y_i = e_(w_i) X in N e_(a_i).  Per part b
    with N e_b nonzero, the rows (i, j) nonzero on M e_b or on the block of
    a_j from N e_(a_i) to N e_b give A_b, their entries on M e_b.  Its left
    kernel holds the relations sum_r c_r y_(i_r) a_(j_r) e_b = 0 (zero rows
    too, and every row where M e_b is empty), and a left inverse of A_b
    gives X_b; both act word by word, at the word's own width.  Returns
    (basis, coords): coords, increasing, are the row-major positions (i, j)
    of an m x n map with i and j in one part, and basis is the reduced basis
    of the maps on them, the one kernel_from_rref gives for the whole system
    a X = X b (CertificationError if two solutions give one map).  The words
    certify completeness only; the caller certifies that the maps commute.
    ValueError on empty or unequal sides, or parts that do not partition them.
    """
    if not left or len(left) != len(right):
        raise ValueError(f"need as many right matrices as left ones, at least one; got {len(left)} and {len(right)}")
    f, p, m, n = left[0].field, left[0].field.p, left[0].nrows, right[0].nrows
    if len(row_parts) != len(col_parts):
        raise ValueError("need as many row parts as column parts")
    rows, cols = ([np.asarray(x, dtype=np.int64).reshape(-1) for x in parts] for parts in (row_parts, col_parts))
    for parts, size in ((rows, m), (cols, n)):
        if not np.array_equal(np.sort(np.concatenate([np.zeros(0, np.int64), *parts])), np.arange(size)):
            raise ValueError(f"the row parts must partition range({m}) and the column parts range({n})")
    # the actions, in the narrowest unsigned type that holds a residue
    src, dst = (np.stack([g.dense().astype(np.min_scalar_type(p - 1)) for g in mats]) for mats in (left, right))
    span, words = RowSpace(f, m), []
    for a in sorted(range(len(rows)), key=lambda a: -rows[a].size):  # stable: equal sizes by part
        for w in rows[a]:
            if span.dim < m and span.insert(Matrix.from_dense(f, src[:, w])):
                words.append((w, a))
    if span.dim < m:
        raise CertificationError("the basis words do not generate the source module")
    starts = np.cumsum([0] + [cols[a].size for _, a in words])  # the columns of each y_i
    targets = []  # per part b with N e_b nonzero: its indices, and each word's live rows and their blocks
    for mb, nb in zip(rows, cols):
        if nb.size:
            blocks = [dst[:, cols[a]][:, :, nb] for _, a in words]
            live = [np.flatnonzero(src[:, w][:, mb].any(1) | x.any((1, 2))) for (w, _), x in zip(words, blocks)]
            targets.append((mb, nb, live, [x[j] for x, j in zip(blocks, live)]))
    if progress:
        eqs = sum((sum(map(len, live)) - mb.size) * nb.size for mb, nb, live, _ in targets)
        progress(f"solving {eqs}x{starts[-1]} kernel on {len(words)} words")
    space, readouts = RowSpace(f, int(starts[-1])), []
    for mb, nb, live, blocks in targets:
        a_b = np.concatenate([np.zeros((0, mb.size), np.int64)] + [src[j, w][:, mb] for (w, _), j in zip(words, live)])
        R, _, piv = Matrix.hstack([Matrix.from_dense(f, a_b.T), Matrix.identity(f, mb.size)]).rref()
        left_inverse = np.zeros((mb.size, len(a_b)), np.int64)  # E A_b^T = R with R = 1 at the pivots P:
        left_inverse[:, list(piv)] = R.dense()[:, len(a_b) :].T  # A_b[P]^(-1) = E^T
        rels = kernel_from_rref(R.select_columns(range(len(a_b))), mb.size, piv).dense()
        coef, cuts = np.concatenate([rels, left_inverse]), np.cumsum([0] + [len(j) for j in live])
        z = np.zeros((len(coef), nb.size, starts[-1]), src.dtype)  # rows: the relations, then X_b's rows
        for i, x in enumerate(blocks):  # word i: the coefficients on its rows times their blocks
            _, k, l = x.shape
            y = gfp_matmul(coef[:, cuts[i] : cuts[i + 1]], x.reshape(len(x), k * l), p)
            z[:, :, starts[i] : starts[i + 1]] = y.reshape(len(coef), k, l).transpose(0, 2, 1)
        z, cut = z.reshape(len(coef) * nb.size, starts[-1]), len(rels) * nb.size
        space.insert(Matrix.from_dense(f, z[:cut]))
        readouts.append(z[cut:])
    ys = kernel_from_rref(space.basis, space.dim, space.pivots).dense()
    coords = np.sort(np.concatenate([(r[:, None] * n + c).ravel() for r, c in zip(rows, cols)]))
    out = np.zeros((len(ys), coords.size), dtype=np.int64)
    for (mb, nb, _, _), x in zip(targets, readouts):
        out[:, np.searchsorted(coords, (mb[:, None] * n + nb).ravel())] = gfp_matmul(ys, x.T, p)
    basis = reduced_basis(Matrix.from_dense(f, out))
    if basis.nrows < len(ys):
        raise CertificationError("two solutions give the same map")
    return basis, coords


def _ascent_tree(blocks: np.ndarray, a: int) -> list[tuple[int, int, int]]:
    """Edges (word, parent, generator), parents first, of a tree from the first word of V_a to all of it.

    blocks holds the generators on V_a.  An edge w -> w' is a generator whose row w is the unit
    vector at w' != w (for T_s an ascent).  CertificationError if a word is missed.
    """
    dest = np.argmax(blocks != 0, axis=2)
    unit = (np.count_nonzero(blocks, axis=2) == 1) & (blocks.max(axis=2) == 1) & (dest != np.arange(blocks.shape[1]))
    seen, edges = {0}, [(0, 0, 0)]
    for w, _, _ in edges:  # breadth first: the list grows while it is read
        for k in np.flatnonzero(unit[:, w]):
            if dest[k, w] not in seen:
                seen.add(dest[k, w])
                edges.append((int(dest[k, w]), w, int(k)))
    if len(edges) < blocks.shape[1]:
        raise CertificationError(f"the generators do not reach every word of weight {a} from the first word")
    return edges[1:]


def commutant_basis(generators: list[Matrix], progress=None) -> list[Matrix]:
    """Basis of all matrices on V^(tensor d) commuting with every generator.

    Every generator must preserve weight (CertificationError otherwise), so
    the commutant is the sum of the maps X: V_a -> V_b with g_a X = X g_b.
    Each weight pair is solved through the first word w_a = 1^(d-a) 2^a of
    V_a.  A stabiliser g has row w_a equal to lambda_g e_(w_a), so v = X[w_a]
    has v (g_b - lambda_g) = 0, on dim V_b unknowns; along a tree of edges
    w -> w' (_ascent_tree), X[w'] = X[w] g_b.  So X -> v is injective into
    that kernel, and once each kernel basis vector, extended along the tree,
    is certified to commute with every generator (two batched products;
    CertificationError otherwise), the maps are a basis of Hom(V_a, V_b).
    For T_s this is Frobenius reciprocity for the q-permutation module V_a
    (Dipper and James, Proc. LMS 59, 1989).  The basis is the reverse
    reduced echelon form of the union, the one the full system's
    kernel_from_rref gives.  Every product mod p is _kernels.gfp_matmul,
    which alone bounds the primes the products accept.
    """
    if not generators:
        raise ValueError("need at least one generator")
    f, n = generators[0].field, generators[0].nrows
    classes = weight_classes(n)
    size = max(map(len, classes))
    _check_weight_preserving(generators)
    gens = np.stack([g.dense().astype(np.int64) for g in generators])
    blocks = [gens[:, c][:, :, c] for c in classes]
    if progress:
        progress(f"solving {len(classes) ** 2} weight pairs of at most {size} unknowns")
    rows = []
    for a, ga in enumerate(blocks):
        tree, stab = _ascent_tree(ga, a), np.flatnonzero(~ga[:, 0, 1:].any(axis=1))
        for b, gb in enumerate(blocks):
            v = np.eye(gb.shape[1], dtype=np.int64)
            if stab.size:  # the kernel of the stacked (g_b - lambda_g)^T
                eqs = (gb[stab] - ga[stab, 0, 0, None, None] * v).transpose(0, 2, 1).reshape(-1, v.shape[0])
                v = Matrix.from_dense(f, eqs).kernel_basis_matrix().dense().astype(np.int64)
            x = np.zeros((v.shape[0], ga.shape[1], gb.shape[1]), dtype=np.int64)
            x[:, 0] = v
            for w, parent, k in tree:
                x[:, w] = gfp_matmul(x[:, parent], gb[k], f.p)
            if not np.array_equal(gfp_matmul(ga[:, None], x[None], f.p), gfp_matmul(x[None], gb[:, None], f.p)):
                raise CertificationError(f"a map on weight block ({a}, {b}) does not commute with the generators")
            out = np.zeros((v.shape[0], n, n), dtype=np.int64)
            out[:, np.array(classes[a])[:, None], classes[b]] = x
            rows.append(out.reshape(-1, n * n))
    return unflatten(reduced_basis(Matrix.from_dense(f, np.concatenate(rows))), n, n)


def algebra_closure_dim(generators: list[Matrix], basis: Matrix) -> tuple[int, RowSpace]:
    """Dimension and span of the unital algebra generated by matrices on V^(tensor d), inside a basis.

    The generators must preserve weight, and basis must be reduced: its rows
    are matrices on the weight-diagonal entries (_weight_diagonal order),
    each ending in a 1 at its own column, where the other rows are 0
    (CertificationError otherwise).  A coordinate is the entry at an own
    column, certified by multiplying back: the identity and each member
    times each generator, formed one weight class at a time, must be in the
    span (CertificationError otherwise), and so then is each generator g =
    1 g.  The products' coordinates are each generator's right action, a
    dim x dim operator, and they close the identity's.  Returns (dimension,
    span in basis coordinates); Matrix.identity(field, C(2d, d)) is the
    basis of all weight-diagonal entries.
    """
    if not generators:
        raise ValueError("need at least one generator")
    f, n, k = generators[0].field, generators[0].nrows, basis.dense()
    _check_weight_preserving(generators)
    own = k.shape[1] - 1 - np.argmax(k[:, ::-1] != 0, axis=1)
    if not np.array_equal(k[:, own], np.eye(len(k))):
        raise CertificationError("the basis is not reduced, or it is linearly dependent")

    def coordinates(x, what):  # the entries of x at the own columns, certified by multiplying back
        if not np.array_equal(gfp_matmul(x[:, own], k, f.p), x):
            raise CertificationError(f"{what} is not in the span of the basis")
        return x[:, own]

    wd = _weight_diagonal(n)
    blocks = [(c, np.searchsorted(wd, n * np.array(c)[:, None] + c)) for c in weight_classes(n)]
    unit = coordinates(np.isin(wd, np.arange(n) * (n + 1))[None].astype(np.int64), "the identity")
    ops = []
    for g in (x.dense() for x in generators):  # every member times g, one weight class at a time
        prod = np.empty(k.shape, dtype=np.int64)
        for c, e in blocks:
            prod[:, e] = gfp_matmul(k[:, e].reshape(-1, len(c)), g[np.ix_(c, c)], f.p).reshape(len(k), len(c), -1)
        ops.append(Matrix.from_dense(f, coordinates(prod, "a product of a member and a generator")))
    span = RowSpace(f, len(k))
    span.insert(Matrix.from_dense(f, unit))
    span.close(ops)
    return span.dim, span


def _commuting_maps(maps: Matrix, members: list[Matrix]) -> Matrix:
    """Reduced basis of the combinations of maps, rows on _weight_diagonal, that commute with every member.

    Each member g lies on one weight block (a, c) (certified by
    structure_constants), where g X - X g is g_ac X_c - X_a g_ac.  Block by
    block, the combinations whose residuals vanish (their left kernel) replace
    the maps.  Returns maps itself when every residual vanishes.
    """
    f, n, kept = maps.field, members[0].nrows, maps
    diag = [np.searchsorted(_weight_diagonal(n), n * np.array(c)[:, None] + c) for c in weight_classes(n)]  # X_a
    for a, c, g in _weight_blocks(members):
        x, k, na, nc = kept.dense(), kept.nrows, len(diag[a]), len(diag[c])
        g = g[g.any(axis=1)].reshape(-1, na, nc)
        gx = gfp_matmul(g.reshape(-1, nc), x[:, diag[c]].transpose(1, 0, 2).reshape(nc, -1), f.p)
        xg = gfp_matmul(x[:, diag[a]].reshape(-1, na), g.transpose(1, 0, 2).reshape(na, -1), f.p)
        res = gx.reshape(-1, na, k, nc).transpose(2, 0, 1, 3) - xg.reshape(k, na, -1, nc).transpose(0, 2, 1, 3)
        if res.any():
            kept = Matrix.from_dense(f, res.reshape(k, -1)).transpose().kernel_basis_matrix() @ kept
    return maps if kept is maps else reduced_basis(kept)


def double_centralizer_report(params: HeckeParams, progress=None) -> dict:
    """Compare the TL action image with the double commutant on V^(tensor d).

    The commutant's structure constants come first, certifying what the solve
    rests on; a product outside its span means it is not closed.  The double
    commutant is solved with the commutant acting on both sides
    (presented_hom), restricted to the maps that commute with every member
    (_commuting_maps).  The TL image is closed inside it, which certifies the
    inclusion, so the two are equal iff their dimensions are.  Returns a
    JSON-friendly report of the three dimensions and the two verdicts.
    """
    d, classes = params.d, weight_classes(1 << params.d)
    if progress:
        progress("commutant of the TL action")
    comm = commutant_basis(hecke_generator_matrices(params), progress=progress)
    try:
        structure_constants(comm)
        closed = True
    except CertificationError:
        raise
    except RuntimeError:
        closed = False
    if progress:
        progress("double commutant")
    comm2 = _commuting_maps(presented_hom(comm, comm, classes, classes, progress=progress)[0], comm)
    if progress:
        progress("closing TL image")
    tl_dim, _ = algebra_closure_dim(tl_generator_matrices(params), comm2)
    return {
        "d": d,
        "field": params.field.name,
        "u": params.field.fmt(params.u),
        "tl_image_dim": tl_dim,
        "commutant_dim": len(comm),
        "double_commutant_dim": comm2.nrows,
        "tl_image_equals_double_commutant": tl_dim == comm2.nrows,
        "commutant_closed_under_product": bool(closed),
    }
