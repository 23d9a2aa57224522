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
per weight pair through that first word; the double commutant and hom spaces
of modules are intertwiner systems on their weight-diagonal entries only.
"""

from __future__ import annotations

import numpy as np

from ._kernels import gfp_matmul
from .hecke import HeckeElement, HeckeParams
from .linalg import Matrix, RowSpace, kernel_from_rref, reduced_basis, unflatten
from .permutations import Permutation

# bytes of the row block intertwiner_rows copies into a Matrix at a time: int64 residues
# over GF(p), 260 rows of 252 columns, and uint8 bits over GF(2), eight times as many
_BLOCK_BYTES = 512 << 10


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
    order = np.argsort(_weights(n), kind="stable")
    sizes = [len(c) for c in weight_classes(n)]
    ends = np.cumsum([0] + sizes)

    def blocks(mats):  # (a, b, the flattened blocks (a, b) of the matrices), rows and columns in weight order
        dense = np.stack([m.dense() for m in mats])[:, order][:, :, order]
        for a in range(len(sizes)):
            for b in range(len(sizes)):
                yield a, b, dense[:, ends[a] : ends[a + 1], ends[b] : ends[b + 1]].reshape(len(mats), -1)

    members = {}  # (a, b) -> (indices, their blocks in float64, own columns)
    count = np.zeros(dim, dtype=np.int64)
    for a, b, x in blocks(basis):
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
    for a, b, x in blocks([Matrix.identity(f, n), *weight_projections(f, n)]):
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


def intertwiner_system(left: list[Matrix], right: list[Matrix], row_parts, col_parts):
    """The linear system of a @ X == X @ b over every pair (a, b), and its unknowns.

    Uses the row-major vectorization: vec(a X - X b) = (a kron I - I kron
    b^T) vec(X).  X is block diagonal: its k-th block has rows row_parts[k]
    and columns col_parts[k], any index sets, and only those entries are
    unknowns ([range(m)], [range(n)] makes every entry one).  Output block
    (k, l) of a X - X b is a_kl X_l - X_k b_kl.
    Each side is stacked once in part order, so a_kl and b_kl are slices;
    one support test keeps the blocks with rows where either is nonzero,
    by pair, then k, then l.  a_kl kron I and I kron b_kl^T are never
    formed: the entries of a_kl and b_kl are placed at their equations and
    unknowns through broadcast indices.  An entry is one a_kl term minus
    one b_kl term, in [-(p-1), p-1]: the stacks and the system are in the
    narrowest signed type that holds it (int8 up to p = 127, int16 up to
    32749), and entries are not reduced mod p.
    Returns (system, coords): coords lists the row-major positions of the
    unknowns in increasing order, one system column each; system is None
    when no equation remains.  Raises ValueError unless left and right are
    equally long and not empty, and the row and column parts are equally
    many and partition their sides.
    """
    if not left or len(left) != len(right):
        raise ValueError(f"need as many right matrices as left ones, at least one; got {len(left)} and {len(right)}")
    f = left[0].field
    m, n = left[0].nrows, right[0].nrows
    if len(row_parts) != len(col_parts):
        raise ValueError("need as many row parts as column parts")
    rsz, csz = (np.array([len(x) for x in parts], dtype=np.int64) for parts in (row_parts, col_parts))
    ro, co = (np.array([i for x in parts for i in x], dtype=np.int64) for parts in (row_parts, col_parts))
    if not (np.array_equal(np.sort(ro), np.arange(m)) and np.array_equal(np.sort(co), np.arange(n))):
        raise ValueError(f"the row parts must partition range({m}) and the column parts range({n})")
    r0, c0 = np.cumsum(rsz) - rsz, np.cumsum(csz) - csz
    rs, cs = [slice(s, s + z) for s, z in zip(r0, rsz)], [slice(s, s + z) for s, z in zip(c0, csz)]
    # the unknowns of each part, its rows times its columns, and their system columns
    flat = [ro[r, None] * n + co[c] for r, c in zip(rs, cs)]
    coords = np.sort(np.concatenate([x.ravel() for x in flat]))
    unknowns = [np.searchsorted(coords, x) for x in flat]
    dt = np.min_scalar_type(-(f.p - 1))

    def stack(mats, order, starts, sizes):  # the matrices in part order, and where their blocks (k, l) are nonzero
        x = np.stack([g.dense().astype(dt) for g in mats])[:, order[:, None], order]
        full = np.flatnonzero(sizes)
        live = np.zeros((len(mats), sizes.size, sizes.size), dtype=bool)
        nonzero = np.logical_or.reduceat(x != 0, starts[full], axis=1)
        live[:, full[:, None], full] = np.logical_or.reduceat(nonzero, starts[full], axis=2)
        return x, live

    a, a_live = stack(left, ro, r0, rsz)
    b, b_live = stack(right, co, c0, csz)
    height = rsz[:, None] * csz[None, :]
    blocks = np.nonzero((a_live | b_live) & (height > 0))
    if not blocks[0].size:
        return None, coords
    ends = np.cumsum(height[blocks[1:]])
    system = np.zeros((ends[-1], coords.size), dtype=dt)
    for g, k, l, end in zip(*blocks, ends):
        eq = np.arange(end - height[k, l], end).reshape(rsz[k], csz[l], 1)  # equation (i, j) of the block
        # a_kl kron I: a_kl[i, i'] at unknown (i', j) of X_l; then minus I kron b_kl^T: b_kl[j', j] at
        # unknown (i, j') of X_k, which for k == l meets the first at i' = i, j' = j
        system[eq, unknowns[l].T] = a[g, rs[k], rs[l]][:, None, :]
        system[eq, unknowns[k][:, None, :]] -= b[g, cs[k], cs[l]].T
    return system, coords


def intertwiner_rows(left: list[Matrix], right: list[Matrix], row_parts, col_parts, progress=None) -> Matrix:
    """Basis of the matrices X with a @ X == X @ b for every pair (a, b), flattened row-major.

    The system and the parts are those of intertwiner_system.  Its rows go
    into one RowSpace in blocks of _BLOCK_BYTES, so the narrow array is
    never held whole as int64.  Once the span's kernel is smaller than the
    span, only the rows of a block with rows @ kernel^T nonzero, the ones
    outside the span, are inserted, and the kernel is read again after each
    growth.  The rref of a span is unique, so the basis is the one
    kernel_from_rref gives for the whole system, in the full flattening.
    """
    f = left[0].field
    system, coords = intertwiner_system(left, right, row_parts, col_parts)
    space, kernel = RowSpace(f, coords.size), None
    if system is not None:
        if progress:
            progress(f"solving {system.shape[0]}x{system.shape[1]} kernel")
        step = max(1, _BLOCK_BYTES // ((1 if f.p == 2 else 8) * coords.size))
        for lo in range(0, system.shape[0], step):
            rows = Matrix.from_dense(f, system[lo : lo + step])
            if kernel is not None:  # inserting rows outside the span makes the kernel stale: release it first
                keep = np.flatnonzero((rows @ kernel.transpose()).dense().any(axis=1))
                rows, kernel = rows.select_rows(keep), None if keep.size else kernel
            if rows.nrows and space.insert(rows) and 2 * space.dim > coords.size:
                kernel = kernel_from_rref(space.basis, space.dim, space.pivots)
    kernel = kernel_from_rref(space.basis, space.dim, space.pivots)
    out = np.zeros((kernel.nrows, left[0].nrows * right[0].nrows), dtype=np.int64)
    out[:, coords] = kernel.dense()
    return Matrix.from_dense(f, out)


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


def double_centralizer_report(params: HeckeParams, progress=None) -> dict:
    """Compare the TL action image with the double commutant on V^(tensor d).

    The double commutant is solved on the weight-diagonal entries, as it
    commutes with the weight projections (certified by structure_constants).
    The TL image is closed inside it, which certifies the inclusion, so the
    two are equal iff their dimensions are.  Returns a JSON-friendly report
    of the three dimensions and the two verdicts.
    """
    d, n, classes = params.d, 1 << params.d, weight_classes(1 << params.d)
    if progress:
        progress("commutant of the TL action")
    comm = commutant_basis(hecke_generator_matrices(params), progress=progress)
    if progress:
        progress("double commutant")
    comm2 = intertwiner_rows(comm, comm, classes, classes, progress=progress)
    if progress:
        progress("closing TL image")
    tl_dim, _ = algebra_closure_dim(tl_generator_matrices(params), comm2.select_columns(_weight_diagonal(n)))
    # the commutant's multiplication table, block by block: a weight projection outside its
    # span raises, and a product outside it means the commutant is not closed
    try:
        structure_constants(comm)
        closed = True
    except CertificationError:
        raise
    except RuntimeError:
        closed = False
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
