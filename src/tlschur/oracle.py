"""Independent oracle: explicit finite-dimensional algebras and modules.

The Schur algebra S_q(2, d) is realized concretely as the commutant of the
Hecke generator action on V^(tensor d), with structure constants read off
the faithful matrices.  Modules are row-vector spaces with one action matrix
per algebra basis element, composing as act(xy) = act(x) @ act(y).

Structure constants of S(2, d) are computed block by block on the weight
blocks of V^(tensor d) (tensor_action.structure_constants).  Each basis
element is certified nonzero on one block (a, b), and the basis elements of
a block reduced, so all products of the elements of (a, b) with those of
(b, c) are one product, and a coordinate is an entry of block (a, c),
certified by multiplying back.  End(Q) has no structure constants: its
elements, idempotents and certificates are matrices on Q.

Intertwiner and hom systems are solved per weight.  The commutant is solved
one pair of weight spaces of V^(tensor d) at a time (tensor_action).  The
weight idempotents e_a, stored as coordinate rows whose matrices are
certified orthogonal with sum 1, split every module into weight spaces
M e_a.  Every module built here has a basis of weight vectors, whose parts
M e_a are read off the actions of the e_a (ExplicitModule.weight_parts), and
a module map sends M e_a into N e_a, so hom_space takes only the entries
between basis vectors of one weight as unknowns.  Every basis equals the one
the full system would give.  A hom space is a Matrix with one row-major
flattened map per row, and every one is certified: all its maps commute with
the actions of elements that generate the algebra with 1 (_check_module_maps).

relative_domdim iterates minimal left approximations into add(Q) for Q the
tensor module.  End(Q) is split once, with no random draws, through its
action on the weight tops X_a of Q: the weight-a vectors killed by every map
to a more dominant weight, modulo the weight-a part of the submodule that
the more dominant weights generate.  Q is tilting, and each summand T(d - 2a)
adds one line to X_a and nothing to any other X_b (Ringel, Math. Z. 208,
1991; Donkin, The q-Schur Algebra, 1998), so End(Q) maps onto the product of
the End(X_a), certified by rank, with a kernel certified nilpotent: that
kernel is the radical J.  The primitive idempotents are lifts of the
diagonal matrix units, each certified an endomorphism by commuting with the
generator actions.  A step maps M to the sum of the T(m)^(n_m) by lifts of
a basis of the top of Hom(M, Q): if that map is not injective the
accumulated count is the answer; if its cokernel is zero, M is in add(Q)
and the answer is infinite; otherwise the cokernel, known by its dim and
homs, is next.

Soundness: every approximation has the kernel of the full stacked map of a
hom basis, so finite verdicts and step counts do not depend on the choice
(the suite cross-checks the universal iteration at small degree), and a
minimal approximation of a module in add(Q) is an isomorphism, so a zero
cokernel is exactly the split case.  Hom spaces after the first step come
from left exactness: for a presentation M' -> sum_s Q e_s -> M -> 0,
Hom(M, Q) is the (H_s) in the e_s End(Q) with sum_s F_s H_s = 0, solved
for their coefficients in bases of the e_s End(Q), which keeps every
elimination small.  Every hom space is held as flattened maps, on which
End(Q) acts by its own matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

import numpy as np

from . import _kernels
from .domdim import FieldRegime, Infinity, domdim_char_tilting, domdim_regular, domdim_standard, encode_extnat
from .hecke import BLESSED_CONFIGS, HeckeElement, HeckeParams, kernel_generator, phi
from .linalg import Matrix, RowSpace, flat_products, flatten, kernel_from_rref, unflatten
from .permutations import symmetric_group
from .tensor_action import (
    CertificationError,
    commutant_basis,
    double_centralizer_report,
    element_action,
    hecke_action,
    hecke_generator_matrices,
    intertwiner_rows,
    structure_constants,
    tl_action,
    weight_projections,
)
from .tl import catalan, check_relations


class ConstructionError(RuntimeError):
    """A module construction failed its defining validation."""


@dataclass(eq=False, repr=False)
class ExplicitAlgebra:
    """Finite-dimensional algebra given by structure constants.

    basis holds faithful matrices (the commutant realization); structure is
    the array c with b_i b_j = sum_k c[i,j,k] b_k; unit is the coordinate
    row of the identity; gen_rows holds coordinate rows of a few elements
    that generate the algebra with 1 (used to shrink intertwiner systems);
    idempotents holds the coordinate rows of the weight idempotents e_a,
    orthogonal and summing to 1, which split every module into weight spaces
    and act on a basis of weight vectors as 0/1 diagonals (weight_parts).
    """

    field: object
    basis: list[Matrix]
    structure: np.ndarray
    unit: tuple
    gen_rows: Matrix
    idempotents: Matrix
    degree: int | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def right_mult_matrix(self, j: int) -> Matrix:
        """Matrix of right multiplication by b_j on coordinate rows."""
        return Matrix.from_dense(self.field, self.structure[:, j, :])


def _check_idempotents(mats: list[Matrix]) -> None:
    """Certify e_a e_b = delta_ab e_a and sum_a e_a = 1 for idempotents given as matrices."""
    f, n = mats[0].field, mats[0].nrows
    zero = Matrix.zeros(f, n, n)
    for a, ea in enumerate(mats):
        # e_a times every e_b at once, side by side
        if ea @ Matrix.hstack(mats) != Matrix.hstack([ea if b == a else zero for b in range(len(mats))]):
            raise CertificationError("the idempotents are not orthogonal idempotents")
    total = mats[0]
    for ea in mats[1:]:
        total = total + ea
    if total != Matrix.identity(f, n):
        raise CertificationError("the idempotents do not sum to the unit")


def _generator_rows(field, structure, unit: tuple) -> Matrix:
    """Few coordinate rows that generate the algebra together with 1.

    Every intertwiner system downstream stacks one block per generator, so
    small sets matter.  Random combinations beat any basis subset: a single
    generic element separates many weight idempotents at once, while echelon
    basis elements do not.  Random sets of increasing size are tried and
    verified by closing the span of 1 under their right multiplications.
    They start at two elements: one element and 1 generate a commutative
    algebra, and S(2, d) is not commutative (xi_0 does not commute with a
    nonzero x in xi_0 A xi_1).
    """
    dim = structure.shape[0]
    mults_flat = Matrix.from_dense(field, structure.transpose(1, 0, 2).reshape(dim, dim * dim))
    rng = random.Random(dim * 7919 + 11)
    for size in range(2, min(7, dim + 1)):
        for _ in range(8):
            rows = Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(dim)] for _ in range(size)])
            sp = RowSpace(field, dim)
            sp.insert(Matrix.from_rows(field, [list(unit)]))
            sp.close(unflatten(rows @ mults_flat, dim, dim))
            if sp.dim == dim:
                return rows
    raise CertificationError("no random set of at most six elements generates the algebra")


_SCHUR_CACHE: dict = {}


def schur_algebra(params: HeckeParams, progress=None) -> ExplicitAlgebra:
    """The commutant of the Hecke action on V^(tensor d), with structure data."""
    key = (params.d, params.field, params.u)
    if key in _SCHUR_CACHE:
        return _SCHUR_CACHE[key]
    if progress:
        progress(f"building commutant for d={params.d}")
    gens = hecke_generator_matrices(params)
    basis = commutant_basis(gens, progress=progress)
    if progress:
        progress(f"structure constants on dim {len(basis)}")
    f = params.field
    structure, unit, idempotents = structure_constants(basis)
    _check_idempotents(weight_projections(f, basis[0].nrows))
    gen_rows = _generator_rows(f, structure, unit)
    alg = _SCHUR_CACHE[key] = ExplicitAlgebra(f, basis, structure, unit, gen_rows, idempotents, degree=params.d)
    return alg


class ExplicitModule:
    """Right module over an ExplicitAlgebra: one action matrix per basis element."""

    def __init__(self, algebra: ExplicitAlgebra, actions: list[Matrix], label: str = ""):
        if len(actions) != algebra.dim:
            raise ValueError(f"a module needs {algebra.dim} action matrices, one per basis element; got {len(actions)}")
        self.algebra = algebra
        self.dim = actions[0].nrows if actions else 0
        for a in actions:
            if a.nrows != self.dim or a.ncols != self.dim:
                raise ValueError(f"action matrices must all be {self.dim}x{self.dim}; got {a.nrows}x{a.ncols}")
        self.actions = actions
        self.label = label
        self.is_regular = False

    def element_actions(self, rows: Matrix) -> list[Matrix]:
        """Action matrices of the elements with the given coordinate rows."""
        if self.dim == 0:
            return [Matrix.zeros(self.algebra.field, 0, 0)] * rows.nrows
        return unflatten(rows @ flatten(self.actions), self.dim, self.dim)

    def generator_actions(self) -> list[Matrix]:
        """Action matrices of the algebra's generator rows, cached."""
        cached = getattr(self, "_gen_acts", None)
        if cached is None:
            cached = self._gen_acts = self.element_actions(self.algebra.gen_rows)
        return cached

    def weight_parts(self) -> list[list[int]]:
        """The basis indices of each weight space M e_a, by increasing a, cached.

        Read off the actions of the weight idempotents: each must be the 0/1
        diagonal of its part, and every basis vector must lie in exactly one
        part, so the basis is made of weight vectors (CertificationError
        otherwise).  Every constructor here gives such a basis.
        """
        cached = getattr(self, "_weight_parts", None)
        if cached is None:
            acts = [x.dense() for x in self.element_actions(self.algebra.idempotents)]
            diags = np.array([np.diag(x) == 1 for x in acts]).reshape(len(acts), self.dim)
            if (diags.sum(axis=0) != 1).any() or any(not np.array_equal(x, np.diag(d)) for x, d in zip(acts, diags)):
                raise CertificationError("the module's basis is not made of weight vectors")
            cached = self._weight_parts = [np.flatnonzero(d).tolist() for d in diags]
        return cached


def tensor_module(alg: ExplicitAlgebra) -> ExplicitModule:
    """V^(tensor d) as a module over its commutant algebra."""
    return ExplicitModule(alg, list(alg.basis), label="tensor space")


def regular_module(alg: ExplicitAlgebra) -> ExplicitModule:
    """The algebra acting on itself; actions come from structure constants."""
    acts = [alg.right_mult_matrix(j) for j in range(alg.dim)]
    mod = ExplicitModule(alg, acts, label="regular")
    mod.is_regular = True
    return mod


def direct_sum(a: ExplicitModule, b: ExplicitModule) -> ExplicitModule:
    if a.algebra is not b.algebra:
        raise ValueError("direct_sum needs two modules over the same algebra")
    acts = [Matrix.block_diag([x, y]) for x, y in zip(a.actions, b.actions)]
    return ExplicitModule(a.algebra, acts, label=f"({a.label})+({b.label})")


def _side_by_side(rows: Matrix, n: int) -> Matrix:
    """The hstack of the matrices with n rows flattened in rows."""
    k, w = rows.nrows, rows.ncols // n
    mats = rows.dense().reshape(k, n, w)
    return Matrix.from_dense(rows.field, mats.transpose(1, 0, 2).reshape(n, k * w))


def _check_module_maps(maps: Matrix, left: list[Matrix], right: list[Matrix], failure: str) -> None:
    """Certify g_M X = X g_N for every map X, one flattened per row of maps, and every generator g.

    left and right hold the actions g_M and g_N of the algebra's generator
    rows on the source and the target (ExplicitModule.generator_actions),
    which generate the algebra with 1 (_generator_rows), so a map that
    commutes with them is a module map.  Two products per generator cover
    every map: X g_N on the maps stacked, g_M X on them side by side.
    Raises CertificationError(failure) otherwise.
    """
    k, a = maps.nrows, left[0].nrows
    b = maps.ncols // a
    stacked, side = maps.reshape(k * a, b), _side_by_side(maps, a)
    for gm, gn in zip(left, right):
        after = (gm @ side).dense().reshape(a, k, b).transpose(1, 0, 2)
        if not np.array_equal((stacked @ gn).dense().reshape(k, a, b), after):
            raise CertificationError(failure)


def hom_space(m: ExplicitModule, n: ExplicitModule) -> Matrix:
    """Certified basis of module maps m -> n, one row-major flattened map per row, solved weight space by weight space.

    A module map commutes with the weight idempotents, so it sends each
    weight space M e_a into N e_a: on the bases of weight vectors of both
    modules (ExplicitModule.weight_parts) only the entries between indices
    of one weight are unknowns of the generator intertwiner system
    (intertwiner_rows).  Its basis is the one kernel_from_rref gives for the
    full system.  Every map is certified to commute with the generator
    actions of both modules (_check_module_maps).
    """
    if n.algebra is not m.algebra:
        raise ValueError("hom_space needs two modules over the same algebra")
    if m.dim == 0 or n.dim == 0:
        return Matrix.zeros(m.algebra.field, 0, m.dim * n.dim)
    left, right = m.generator_actions(), n.generator_actions()
    maps = intertwiner_rows(left, right, m.weight_parts(), n.weight_parts())
    _check_module_maps(maps, left, right, "a solved map is not a module map")
    return maps


def _regular_hom_basis(q: ExplicitModule) -> Matrix:
    """Hom(A, Q) = Q, one flattened map per row: the map for y sends b_i to y * act(b_i)."""
    acts = np.stack([a.dense() for a in q.actions])  # (i, y, column)
    return Matrix.from_dense(q.algebra.field, acts.transpose(1, 0, 2).reshape(q.dim, -1))


def cyclic_submodule(parent: ExplicitModule, seeds: list) -> tuple[ExplicitModule, Matrix]:
    """Smallest action-stable subspace containing the seed row vectors, and its inclusion matrix."""
    alg = parent.algebra
    f = alg.field
    sp = RowSpace(f, parent.dim)
    sp.insert(Matrix.from_rows(f, [list(s) for s in seeds]))
    sp.close(parent.generator_actions())
    U = sp.basis
    acts = []
    # U is in rref, so the coordinates of a vector of its span are its entries at the pivots
    for a in parent.actions:
        ua = U @ a
        x = ua.select_columns(sp.pivots)
        if x @ U != ua:
            raise CertificationError("closure failed: action leaves the computed subspace")
        acts.append(x)
    sub = ExplicitModule(alg, acts)
    return sub, U


def _tensor_seed(params: HeckeParams, m: int) -> list:
    """Coordinates of z^(tensor (d-m)/2) tensor e1^m with z = e1 e2 - u^(-1) e2 e1."""
    p = params.field.p
    z = np.array([0, 1, p - params.u_inv, 0], dtype=np.int64)  # on the words 11, 12, 21, 22
    vec = np.ones(1, dtype=np.int64)
    for factor in [z] * ((params.d - m) // 2) + [np.array([1, 0], dtype=np.int64)] * m:
        vec = np.kron(vec, factor) % p
    return vec.tolist()


def standard_module(params: HeckeParams, m: int, algebra: ExplicitAlgebra | None = None) -> ExplicitModule:
    """Weyl module of weight m inside tensor space, validated by its dimension.

    The generating vector is z^(tensor (d-m)/2) tensor e1^m with the
    q-antisymmetric z = e1 e2 - u^(-1) e2 e1; a cyclic closure of dimension
    other than m + 1 raises ConstructionError.
    """
    d = params.d
    if m < 0 or m > d or (d - m) % 2 != 0:
        raise ValueError(f"weight {m} not admissible in degree {d}")
    alg = algebra if algebra is not None else schur_algebra(params)
    parent = tensor_module(alg)
    sub, _ = cyclic_submodule(parent, [_tensor_seed(params, m)])
    if sub.dim != m + 1:
        raise ConstructionError(f"standard module of weight {m} has dimension {sub.dim}, not {m + 1}")
    sub.label = f"Delta({m})"
    return sub


@dataclass(frozen=True)
class DomdimResult:
    """Outcome of the iterative dominant dimension computation."""

    kind: str  # "exact" | "at_least" | "infinite"
    value: int | None

    @staticmethod
    def exact(n: int) -> "DomdimResult":
        return DomdimResult("exact", n)

    @staticmethod
    def at_least(n: int) -> "DomdimResult":
        return DomdimResult("at_least", n)

    @staticmethod
    def infinite() -> "DomdimResult":
        return DomdimResult("infinite", None)

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    def matches(self, expected) -> bool:
        if isinstance(expected, Infinity):
            return self.is_infinite
        return self.kind == "exact" and self.value == expected

    def encode(self):
        if self.kind == "exact":
            return self.value
        if self.kind == "infinite":
            return "infinity"
        return f">={self.value}"

    def __repr__(self):
        return f"DomdimResult({self.encode()})"


def _row_basis(rows: Matrix) -> Matrix:
    R, rank, _ = rows.rref()
    return R.select_rows(range(rank))


@dataclass(eq=False, repr=False)
class TensorEnd:
    """End(Q) of the tensor module Q, split into indecomposable summands T(m).

    Everything is a matrix on Q.  basis holds the E_l of hom_space(Q, Q) and
    primitive the orthogonal primitive idempotents with sum 1, lifted from
    the diagonal matrix units of the weight tops (_split_end), by class in
    decreasing highest weight: class k has mults[k] summands T(weights[k])
    of dimension dims[k].  The rest are hstacks of endomorphisms side by
    side, the form in which relative_domdim acts with them: tops holds the
    first primitive e_k of each class, radical a basis of J, the kernel of
    the action on the weight tops, and corners[k] a basis of e_k End(Q).  summands[k] is the rref basis U_k of Q e_k and
    pivots[k] its pivot columns: a vector of Q e_k is its entries there
    times U_k, the summand coordinates in which relative_domdim works.
    """

    basis: list[Matrix]
    primitive: list[Matrix]
    weights: list[int]
    mults: list[int]
    dims: list[int]
    tops: Matrix
    summands: list[Matrix]
    pivots: list[tuple[int, ...]]
    radical: Matrix
    corners: list[Matrix]


def _tensor_end(q: ExplicitModule) -> TensorEnd:
    """End(Q) and its certified split (_split_end), built once and cached on q; only Q = tensor_module(algebra)."""
    cached = getattr(q, "_end_cache", None)
    if cached is not None:
        return cached
    if q.actions != q.algebra.basis:
        raise ValueError("relative dominant dimension is taken relative to tensor_module(algebra) only")
    q._end_cache = _split_end(q, hom_space(q, q))
    return q._end_cache


def _split_end(q: ExplicitModule, flat: Matrix) -> TensorEnd:
    """Split End(Q), one flattened map E_l per row of flat, through its action on the weight tops of Q.

    Each element of the basis q.actions of S is certified to lie on one
    weight block (a, b), mapping Q e_a into Q e_b; b < a is more dominant.
    HW_a is the set of vectors of Q e_a killed by the blocks (a, b), b < a,
    and N_a, the row space of the blocks (b, a), b < a, is the weight-a part
    of the submodule that the Q e_b, b < a, generate.  End(Q) keeps both, so
    rho_a(E_l) is its action on X_a = (HW_a + N_a) / N_a in the basis B_a,
    read at the pivots of B_a and certified by multiplying back.

    dim X_a is the multiplicity m_a of T(lam), lam = d - 2a, in Q: HW_a and
    N_a are additive, T(lam) adds its line of weight lam, and T(mu) with
    mu < lam has no weight lam.  For mu > lam every composite Delta(lam) ->
    T(mu) -> nabla(lam) is zero, so a highest weight vector of weight lam in
    T(mu) lies in S T(mu)_{<a}: it adds nothing.

    Soundness rests on the certificates alone (CertificationError on any):
    rho = sum_a rho_a has rank sum m_a^2, so it maps onto the semisimple
    product of the End(X_a), and its kernel is nilpotent (Q > Q J > ...
    reaches 0), so the kernel is the radical J.  Lifts of the diagonal matrix
    units, one corner at a time by x -> 3x^2 - 2x^3, are primitive,
    certified orthogonal idempotents with sum 1 and endomorphisms of Q, and
    each e is certified zero above its weight a and of rank 1 there, which
    names Q e = T(d - 2a).
    """
    field, dq, e = q.algebra.field, q.dim, flat.nrows
    classes = q.weight_parts()
    label = np.zeros(dq, dtype=np.int64)
    for a, idx in enumerate(classes):
        label[idx] = a
    blocks: dict[tuple[int, int], list[np.ndarray]] = {}
    for x in q.actions:
        dense = x.dense()
        rows, cols = np.nonzero(dense)
        live = np.zeros(len(classes) ** 2, dtype=bool)
        live[label[rows] * len(classes) + label[cols]] = True
        live = np.flatnonzero(live)
        if live.size != 1:
            raise CertificationError("a basis element of S is not on exactly one weight block")
        a, b = divmod(int(live[0]), len(classes))
        blocks.setdefault((a, b), []).append(dense[np.ix_(classes[a], classes[b])])
    maps, kept, rho = flat.dense().reshape(e, dq, dq), [], []
    for a, idx in enumerate(classes):
        up = [x for (r, c), xs in blocks.items() if r == a and c < a for x in xs]
        down = [x for (r, c), xs in blocks.items() if c == a and r < a for x in xs]
        low = RowSpace(field, len(idx))
        low.insert(Matrix.from_dense(field, np.vstack([np.zeros((0, len(idx)), np.int64), *down])))
        hw = Matrix.from_dense(field, np.hstack([np.zeros((len(idx), 0), np.int64), *up])).transpose()
        R, m, piv = low.reduce(hw.kernel_basis_matrix()).rref()
        if not m:
            continue
        top = R.select_rows(range(m))
        # row (i, l): the i-th row of B_a times E_l, modulo N_a
        side = maps[:, idx][:, :, idx].transpose(1, 0, 2).reshape(len(idx), e * len(idx))
        images = low.reduce((top @ Matrix.from_dense(field, side)).reshape(m * e, len(idx)))
        coords = images.select_columns(piv)
        if coords @ top != images:
            raise CertificationError("an endomorphism does not keep the weight top of Q")
        kept.append((a, m))
        rho.append(coords.dense().reshape(m, e, m).transpose(1, 0, 2).reshape(e, m * m))
    rho = Matrix.from_dense(field, np.hstack(rho))
    R, rank, piv = rho.transpose().rref()
    if rank < rho.ncols:
        raise CertificationError("End(Q) does not map onto the endomorphisms of the weight tops")
    radical, space = _side_by_side(kernel_from_rref(R, rank, piv) @ flat, dq), Matrix.identity(field, dq)
    while radical.ncols and space.nrows:
        nxt = _row_basis((space @ radical).reshape(space.nrows * radical.ncols // dq, dq))
        if nxt.nrows == space.nrows:
            raise CertificationError("the kernel of the action on the weight tops is not nilpotent")
        space = nxt
    # preimages of the diagonal matrix units E_ii of the End(X_a), at columns s + i (m + 1) of rho
    owners = [a for a, m in kept for _ in range(m)]
    diag = [s + i * (m + 1) for (_, m), s in zip(kept, np.cumsum([0] + [m * m for _, m in kept])) for i in range(m)]
    units = Matrix.from_dense(field, np.eye(rho.ncols, dtype=np.int64)[:, diag])
    lifts = unflatten(rho.transpose().solve_many(units).transpose() @ flat, dq, dq)
    rest, primitive = Matrix.identity(field, dq), []
    for x in lifts[:-1]:
        x = rest @ x @ rest
        for _ in range(dq.bit_length() + 1):
            sq = x @ x
            if sq == x:
                break
            x = sq.scale(3) - (sq @ x).scale(2)
        else:
            raise CertificationError("a lift of a matrix unit of the weight tops is not idempotent")
        primitive.append(x)
        rest = rest - x
    primitive.append(rest)
    _check_idempotents(primitive)
    gens = q.generator_actions()
    _check_module_maps(flatten(primitive), gens, gens, "a lifted idempotent is not an endomorphism of Q")
    for x, a in zip(primitive, owners):
        nonzero = [b for b, idx in enumerate(classes) if not x.select_rows(idx).is_zero()]
        if nonzero[:1] != [a] or x.select_rows(classes[a]).rank() != 1:
            raise CertificationError("a primitive idempotent is not a line at its weight and zero above it")
    stack, tops = _side_by_side(flat, dq), [primitive[owners.index(a)] for a, _ in kept]
    # the products e_k E_l span e_k End(Q)
    corners = [_side_by_side(_row_basis(flat_products(t, stack)), dq) for t in tops]
    echelons = [t.rref() for t in tops]
    summands = [r.select_rows(range(t)) for r, t, _ in echelons]  # U_k, the rref basis of Q e_k
    dims, pivots = [t for _, t, _ in echelons], [piv for _, _, piv in echelons]
    weights, mults = [dq.bit_length() - 1 - 2 * a for a, _ in kept], [m for _, m in kept]
    basis = unflatten(flat, dq, dq)
    return TensorEnd(basis, primitive, weights, mults, dims, Matrix.hstack(tops), summands, pivots, radical, corners)


def _orbits(homs: Matrix, acts: Matrix, cols) -> Matrix:
    """The rows h_i x_n at the columns cols, for every acting x_n (outer) and row h_i of homs (inner).

    Row i of homs is a flattened map into Q of dimension a = acts.nrows, and
    x_n acts on each of its rows by column block n of acts: column (s, c) is
    row s times column c, all of them one batched _kernels.gfp_matmul.
    """
    h, a, p = homs.nrows, acts.nrows, homs.field.p
    slot, col = np.divmod(np.asarray(cols, dtype=np.int64), a)
    left = homs.dense().reshape(h, -1, a)[:, slot, :].transpose(1, 0, 2)  # column, row i, row entry
    right = acts.dense().reshape(a, -1, a)[:, :, col].transpose(2, 0, 1)  # column, row entry, x_n
    out = _kernels.gfp_matmul(left, right, p)
    return Matrix.from_dense(homs.field, out.transpose(2, 1, 0).reshape(-1, len(slot)))


def _top_lifts(homs: Matrix, tops: Matrix, radical: Matrix, corners: list[Matrix]) -> list[tuple[int, int]]:
    """Lifts h_i e_k of a basis of the top H / H J of the hom space H, as pairs (k, i).

    Row i of homs is the i-th basis element h_i of H = Hom(M, Q), flattened,
    and End(Q) acts on it by right multiplication.  tops, radical and
    corners[k] are hstacks of endomorphisms of Q (TensorEnd): the class
    idempotents e_k, a basis of J and a basis of e_k End(Q).  For each class
    k in turn, the h_i e_k outside the span of H J and of the maps kept so
    far are kept: they lift a basis of H e_k / (H e_k meet H J), so by
    Nakayama they generate H with as few maps into each T(m) as possible.
    CertificationError unless their End(Q)-orbits h_i e_k End(Q) span H.
    Elements of H are read at the pivot columns of homs only, and only ranks
    enter, so the pairs do not depend on the bases of J and the e_k End(Q),
    and any injective coordinate change compatible with the action gives the
    same pairs.
    """
    h, cols = homs.nrows, homs.rref()[2]
    space = RowSpace(homs.field, h)
    if radical.ncols:
        space.insert(_orbits(homs, radical, cols))
    pairs = [divmod(k, h) for k in space.reduce(_orbits(homs, tops, cols)).transpose().rref()[2]]
    kept = {k: homs.select_rows([i for c, i in pairs if c == k]) for k, _ in pairs}
    orbits = [_orbits(rows, corners[k], cols) for k, rows in kept.items()]
    if not pairs or Matrix.vstack(orbits).rank() < h:
        raise CertificationError("the lifted top does not generate the hom space")
    return pairs


def relative_domdim(m: ExplicitModule, q: ExplicitModule, cap: int | None = None, progress=None) -> DomdimResult:
    """Length of the longest exact add(Q)-coresolution of m detectable up to cap.

    Returns exact(n) when the (n+1)-th approximation fails injectivity,
    infinite() when an approximation is an isomorphism (the module is in
    add(Q)) or m is zero, and at_least(cap) when the cap is reached first.
    q must be tensor_module(m.algebra) (ValueError otherwise).

    Every step holds a basis of Hom(cur, Q) as homs, one flattened map per
    row, on which End(Q) acts by its own matrices (_top_lifts).  The first
    homs come from _regular_hom_basis for the regular module and from
    hom_space for any other; the homs out of a cokernel come from left
    exactness, solved with unknowns in the bases of the e_s End(Q).

    No cokernel is built as a module; a step reads only its dim and homs.
    cur -> sum_s Q e_s is a dim cur x sum_s dim Q e_s matrix in summand
    coordinates (TensorEnd.summands): injective iff of rank dim cur, an
    isomorphism iff also of full column rank.  The free columns of its rref
    span a complement of the image; their rows of diag(U_s) are a section
    of the cokernel, through which its homs are read.
    """
    alg = m.algebra
    if q.algebra is not alg:
        raise ValueError("relative_domdim needs two modules over the same algebra")
    if cap is None:
        cap = 4 * alg.degree if alg.degree else 4 * max(1, q.dim)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    end = _tensor_end(q)
    if m.dim == 0:
        return DomdimResult.infinite()
    if m.is_regular:
        homs = _regular_hom_basis(q)
    else:
        homs = hom_space(m, q)
        if not homs.nrows:
            return DomdimResult.exact(0)
    dim, dq, steps = m.dim, q.dim, 0
    while True:
        picks = _top_lifts(homs, end.tops, end.radical, end.corners)
        slots = [k for k, _ in picks]
        maps = unflatten(homs.select_rows([i for _, i in picks]), dim, dq)
        if progress:
            tops = ", ".join(f"T({w})^{slots.count(k)}" for k, w in enumerate(end.weights))
            progress(f"step {steps + 1}: module dim {dim}, hom dim {homs.nrows}, approximation {tops}")
        # cur -> sum_s Q e_s in summand coordinates: F_s e_s read at the pivots of U_s
        cols = [[k * dq + c for c in end.pivots[k]] for k in slots]
        R, rank, pivots = Matrix.hstack([f @ end.tops.select_columns(c) for f, c in zip(maps, cols)]).rref()
        if rank < dim:
            return DomdimResult.exact(steps)
        if rank == R.ncols:
            return DomdimResult.infinite()  # an isomorphism: cur is in add(Q)
        steps += 1
        if steps >= cap:
            return DomdimResult.at_least(cap)
        # the free coordinates span a complement of the image, so their rows of
        # diag(U_s) are a section sigma of the cokernel into sum_s Q e_s
        free = sorted(set(range(R.ncols)).difference(pivots))
        sigma = Matrix.block_diag([end.summands[k] for k in slots]).select_rows(free)
        sig_blocks = [sigma.select_columns(range(s * dq, (s + 1) * dq)) for s in range(len(maps))]
        dim = len(free)
        # Hom(coker, Q) from left exactness of Hom(-, Q) on the presentation: the
        # (H_s) in the e_s End(Q) with sum_s F_s H_s = 0 (F_s e_s H_s = F_s H_s), as
        # coefficients in their bases, so the kernel basis is a basis of Hom(coker, Q)
        corners = [end.corners[k] for k in slots]
        sols = Matrix.vstack([flat_products(F, y) for F, y in zip(maps, corners)]).transpose().kernel_basis_matrix()
        if sols.nrows == 0:
            return DomdimResult.exact(steps)
        # the induced map on the cokernel is sigma @ vstack_s(H_s); flattening
        # makes all of them one product of the kernel basis with the sigma_s Y
        homs = sols @ Matrix.vstack([flat_products(sb, y) for sb, y in zip(sig_blocks, corners)])


# ---------------------------------------------------------------------------
# verification suite used by the command line and the acceptance tests

def _relations_verdicts(d: int, config: str, params: HeckeParams) -> list[dict]:
    f = params.field
    out = []

    rep = check_relations(params.tl_params())
    out.append(_verdict("tl_relations", d, config, "ok", "ok" if rep.ok else f"violations: {rep.violations}"))

    one = HeckeElement.one(params)
    gens = [HeckeElement.generator(params, i) for i in range(1, d)]
    ok = all(((t - one.scale(params.u)) * (t + one.scale(params.u_inv))).is_zero() for t in gens)
    ok = ok and all(x * y * x == y * x * y for x, y in zip(gens, gens[1:]))
    ok = ok and all(gens[a] * gens[b] == gens[b] * gens[a] for a in range(len(gens)) for b in range(a + 2, len(gens)))
    out.append(_verdict("hecke_presentation", d, config, "ok", "ok" if ok else "violated"))

    rng = random.Random(20260814)
    G = symmetric_group(d)
    ok = True
    for _ in range(8):
        a = HeckeElement(params, {rng.choice(G): f.random(rng) for _ in range(2)})
        b = HeckeElement(params, {rng.choice(G): f.random(rng) for _ in range(2)})
        ok = ok and phi(a * b) == phi(a) * phi(b)
    out.append(_verdict("phi_multiplicative", d, config, "ok", "ok" if ok else "violated"))

    if d >= 3:
        kg = [kernel_generator(params, i) for i in range(1, d - 1)]
        ok = all(phi(x).is_zero() for x in kg)
        out.append(_verdict("phi_kernel_generators", d, config, "all zero", "all zero" if ok else "nonzero image"))
        ok = all(element_action(x).is_zero() for x in kg)
        out.append(_verdict("action_kernel_generators", d, config, "all zero", "all zero" if ok else "nonzero action"))

    n = 1 << d
    I = Matrix.identity(f, n)
    Ts = [hecke_action(params, s) for s in range(1, d)]
    Us = [tl_action(params, s) for s in range(1, d)]
    ok = all(((T - I.scale(params.u)) @ (T + I.scale(params.u_inv))).is_zero() for T in Ts)
    ok = ok and all(U == T - I.scale(params.u) and U @ U == U.scale(params.delta) for T, U in zip(Ts, Us))
    ok = ok and all(x @ y @ x == y @ x @ y for x, y in zip(Ts, Ts[1:]))
    out.append(_verdict("action_presentation", d, config, "ok", "ok" if ok else "violated"))
    return out


def _verdict(check_id: str, d: int, config: str, expected, got) -> dict:
    return {"check_id": check_id, "d": d, "config": config, "expected": expected, "got": got, "pass": expected == got}


def verify_suite(d: int, config: str, cap: int | None = None, progress=None) -> list[dict]:
    """Cross-check closed forms against the oracle for one blessed configuration."""
    if config not in BLESSED_CONFIGS:
        raise ValueError(f"unknown config {config!r}; choose from {sorted(BLESSED_CONFIGS)}")
    if not 2 <= d <= 6:
        raise ValueError("verification is supported for 2 <= d <= 6")
    params = BLESSED_CONFIGS[config](d)
    regime = FieldRegime(quantum_char_is_2=params.quantum_char_is_2)
    out = _relations_verdicts(d, config, params)

    dz = double_centralizer_report(params, progress=progress)
    out.append(_verdict("tl_image_dim", d, config, catalan(d), dz["tl_image_dim"]))
    out.append(_verdict("commutant_dim", d, config, comb(d + 3, 3), dz["commutant_dim"]))
    closed = dz["tl_image_equals_double_commutant"] and dz["commutant_closed_under_product"]
    out.append(_verdict("double_centralizer", d, config, True, closed))

    alg = schur_algebra(params, progress=progress)
    q = tensor_module(alg)
    got = relative_domdim(regular_module(alg), q, cap=cap, progress=progress)
    out.append(_verdict("oracle_regular_domdim", d, config, encode_extnat(domdim_regular(d, regime)), got.encode()))

    if d % 2 == 0:
        # Q + Delta(0) is a characteristic tilting module only if Delta(0) = T(0) is no summand of Q,
        # which holds in the finite case; otherwise T(0) is a summand and every domdim is infinite
        finite = regime.quantum_char_is_2
        out.append(_verdict("oracle_delta0_not_summand", d, config, finite, 0 not in _tensor_end(q).weights))
        got_t = relative_domdim(standard_module(params, 0, algebra=alg), q, cap=cap, progress=progress)
        want_t = encode_extnat(domdim_char_tilting(d, regime))
        out.append(_verdict("oracle_tilting_domdim", d, config, want_t, got_t.encode()))
        factor_ok = got_t.kind == "exact" and got.kind == "exact" and got.value == 2 * got_t.value
        factor_ok = factor_ok or (got_t.is_infinite and got.is_infinite)
        out.append(_verdict("oracle_factor_two", d, config, True, factor_ok))
        # domdim_standard has a closed form in the finite case only
        if d <= 4 and finite:
            deltas = {mm: standard_module(params, mm, algebra=alg) for mm in range(0, d + 1, 2)}
            chain_ok = all(relative_domdim(x, q, cap=cap).matches(domdim_standard(d, mm, regime)) for mm, x in deltas.items())
            out.append(_verdict("oracle_standard_chain", d, config, True, chain_ok))

    out.append(_verdict("oracle_summand_infinite", d, config, "infinity", relative_domdim(q, q, cap=cap).encode()))
    return out
