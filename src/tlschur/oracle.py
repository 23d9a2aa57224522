"""Independent oracle: explicit finite-dimensional algebras and modules.

The Schur algebra S_q(2, d) is realized concretely as the commutant of the
Hecke generator action on V^(tensor d), with structure constants read off
the faithful matrices.  Modules are row-vector spaces with one action matrix
per algebra basis element, composing as act(xy) = act(x) @ act(y).

Intertwiner and hom systems are solved per weight.  The commutant is solved
one pair of weight spaces of V^(tensor d) at a time (tensor_action).  The
weight idempotents e_a, stored as coordinate rows and certified orthogonal
with sum 1, split every module into weight spaces M e_a.  A module map is
block diagonal in weight-adapted bases, so hom_space takes only those blocks
as unknowns.  Every basis equals the one the full system would give.  The
split test solves its retraction equations on the weight-diagonal blocks
only, in those bases, and certifies a "yes" in the given bases.

relative_domdim iterates left approximations into add(Q) for Q the tensor
module: if the approximation is not injective the accumulated count is the
answer; if it splits the answer is infinite; otherwise the cokernel is the
next module.  Each step uses an approximation built from a generating subset
of Hom(M, Q) over End(Q) under post-composition.  Such a map has the same
kernel as the full stacked map of a hom basis (every basis map factors
through it), so injectivity and splitness agree with the universal
approximation, and the step count is independent of the choice.  The suite
cross-checks this against the fully stacked iteration at small degree.

Two soundness notes for the iteration.  First, a finite verdict never needs
split detection: if some intermediate module were a summand of a direct sum
of copies of Q, every later approximation would stay injective, so a
non-injective step could never be reached.  Second, hom spaces after the
first step come from left exactness: for a presentation M' -> Q^g -> M -> 0,
Hom(M, Q) is exactly the solutions (H_s) in End(Q)^g of sum_s F_s H_s = 0,
which keeps every elimination small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .domdim import Infinity, encode_extnat
from .hecke import BLESSED_CONFIGS, HeckeElement, HeckeParams, kernel_generator, phi
from .linalg import Matrix, RowSpace, flat_products, flatten, kernel_from_rref, reduced_basis, unflatten
from .permutations import symmetric_group
from .tensor_action import (
    CertificationError,
    commutant_basis,
    element_action,
    hecke_action,
    hecke_generator_matrices,
    intertwiner_rows,
    tl_action,
    weight_projections,
)
from .tl import check_relations


class ConstructionError(RuntimeError):
    """A module construction failed its defining validation."""


class ExplicitAlgebra:
    """Finite-dimensional algebra given by structure constants.

    basis holds faithful matrices (the commutant realization); structure is
    the array c with b_i b_j = sum_k c[i,j,k] b_k; unit is the coordinate
    row of the identity; gen_rows holds coordinate rows of a few elements
    that generate the algebra with 1 (used to shrink intertwiner systems);
    idempotents holds the coordinate rows of the weight idempotents e_a,
    orthogonal and summing to 1, which split every module into weight spaces.
    """

    def __init__(
        self,
        field,
        basis: list[Matrix],
        structure,
        unit: tuple,
        gen_rows: Matrix,
        idempotents: Matrix,
        degree: int | None = None,
    ):
        self.field = field
        self.dim = len(basis)
        self.basis = basis
        self.structure = structure
        self.unit = unit
        self.gen_rows = gen_rows
        self.idempotents = idempotents
        self.degree = degree

    def right_mult_matrix(self, j: int) -> Matrix:
        """Matrix of right multiplication by b_j on coordinate rows."""
        return Matrix.from_dense(self.field, self.structure[:, j, :])


def _structure_constants(field, basis: list[Matrix], extra: list[Matrix] = ()):
    """Coordinates of every pairwise product in the basis; error if not closed.

    Coordinates in a fixed basis are unique, so they are read off, not
    solved for: with T the flattened basis at the pivot columns of its rref,
    a flat matrix x = y @ flatten(basis) has y = x[:, pivots] @ T^(-1).  The
    products come one left factor at a time (flat_products), and each chunk
    is certified by y @ flatten(basis) == x.  A dependent basis raises
    CertificationError, a product outside the span RuntimeError.

    Returns the structure constants c with b_i b_j = sum_k c[i,j,k] b_k,
    the coordinates of the identity, and the coordinate rows of the extra
    matrices, read off next to the identity (CertificationError if one of
    them is outside the span).
    """
    dim = len(basis)
    flat = flatten(basis)
    _, rank, pivots = flat.rref()
    if rank < dim:
        raise CertificationError("the basis matrices are linearly dependent")
    t_inv = flat.select_columns(pivots).solve_many(Matrix.identity(field, dim))

    def coords(x: Matrix) -> Matrix | None:
        y = x.select_columns(pivots) @ t_inv
        return y if y @ flat == x else None

    rights = Matrix.hstack(basis)
    c = np.empty((dim, dim, dim), dtype=np.int64)
    for i, a in enumerate(basis):
        y = coords(flat_products(a, rights))
        if y is None:
            raise RuntimeError("matrix products leave the span of the basis; algebra is not closed")
        c[i] = y.dense()
    y = coords(flatten([Matrix.identity(field, basis[0].nrows), *extra]))
    if y is None:
        raise CertificationError("the identity or a weight projection is not in the span of the basis")
    unit = tuple(y.entry(0, k) for k in range(dim))
    return c, unit, y.select_rows(range(1, 1 + len(extra)))


def _check_idempotents(field, structure, unit: tuple, rows: Matrix) -> None:
    """Certify e_a e_b = delta_ab e_a and sum_a e_a = 1 from the structure constants."""
    k = rows.nrows
    want = np.zeros((k, k, structure.shape[0]), dtype=np.int64)
    want[range(k), range(k)] = rows.dense()
    if _coord_products(field, structure, rows, rows) != Matrix.from_dense(field, want.reshape(k * k, -1)):
        raise CertificationError("weight idempotents are not orthogonal idempotents")
    if Matrix.from_rows(field, [[1] * k]) @ rows != Matrix.from_rows(field, [list(unit)]):
        raise CertificationError("weight idempotents do not sum to the unit")


def _closes_to_full(field, dim: int, mults: list[Matrix], unit: tuple) -> bool:
    """Whether 1 and the elements with the given right-mult tables generate."""
    sp = RowSpace(field, dim)
    sp.insert(Matrix.from_rows(field, [list(unit)]))
    sp.close(mults)
    return sp.dim == dim


def _generator_rows(field, dim: int, right_mults, unit: tuple) -> Matrix:
    """Few coordinate rows that generate the algebra together with 1.

    Every intertwiner system downstream stacks one block per generator, so
    small sets matter.  Random combinations beat any basis subset: a single
    generic element separates many weight idempotents at once, while echelon
    basis elements do not.  Random sets of increasing size are tried and
    verified by span closure; the index greedy is the fallback.
    """
    mults_flat = flatten(right_mults(i) for i in range(dim))

    def mult_of(rows: Matrix) -> list[Matrix]:
        return unflatten(rows @ mults_flat, dim, dim)

    rng = random.Random(dim * 7919 + 11)
    for size in range(1, min(7, dim + 1)):
        for _ in range(8):
            vals = [[field.coerce(rng.randrange(5)) for _ in range(dim)] for _ in range(size)]
            rows = Matrix.from_rows(field, vals)
            if _closes_to_full(field, dim, mult_of(rows), unit):
                return rows
    sp = RowSpace(field, dim)
    sp.insert(Matrix.from_rows(field, [list(unit)]))
    gens: list[int] = []
    eye = Matrix.identity(field, dim)
    while sp.dim < dim:
        new_idx = None
        for i in range(dim):
            if not sp.contains(eye.select_rows([i])):
                new_idx = i
                break
        if new_idx is None:
            raise CertificationError("span below dim but all basis rows inside")
        gens.append(new_idx)
        sp.close([right_mults(g) for g in gens])
    return Matrix.identity(field, dim).select_rows(gens)


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
    structure, unit, idempotents = _structure_constants(
        params.field, basis, weight_projections(params.field, basis[0].nrows)
    )
    _check_idempotents(params.field, structure, unit, idempotents)
    alg = ExplicitAlgebra(
        params.field, basis, structure, unit, Matrix.zeros(params.field, 0, len(basis)), idempotents, degree=params.d
    )
    alg.gen_rows = _generator_rows(params.field, alg.dim, alg.right_mult_matrix, unit)
    _SCHUR_CACHE[key] = alg
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

    def weight_basis(self) -> tuple[Matrix, Matrix, list[range]]:
        """A basis adapted to the weight spaces M e_a, cached.

        Returns (B, C, parts): the rows of B are the rref bases of the M e_a
        in order of a, parts[a] is the range of rows of M e_a, and C = B^(-1)
        holds the coordinates of each vector's components at the pivot
        columns of its block.  C @ B == identity is checked, so the e_a
        split M.
        """
        cached = getattr(self, "_weight_basis", None)
        if cached is None:
            blocks, coords, parts = [], [], []
            for proj in self.element_actions(self.algebra.idempotents):
                R, rank, pivots = proj.rref()
                blocks.append(R.select_rows(range(rank)))
                coords.append(proj.select_columns(pivots))
                start = parts[-1].stop if parts else 0
                parts.append(range(start, start + rank))
            B, C = Matrix.vstack(blocks), Matrix.hstack(coords)
            if B.nrows != self.dim or C @ B != Matrix.identity(self.algebra.field, self.dim):
                raise CertificationError("weight idempotents do not split the module")
            cached = self._weight_basis = (B, C, parts)
        return cached

    def graded_generator_actions(self) -> tuple[list[Matrix], list[range]]:
        """The generator actions B g C in the weight-adapted basis, and its weight parts."""
        B, C, parts = self.weight_basis()
        return [B @ g @ C for g in self.generator_actions()], parts

    def validate(self, deep: bool = False) -> None:
        """act(unit) = identity, and action respects the structure constants."""
        alg = self.algebra
        f = alg.field
        if self.element_actions(Matrix.from_rows(f, [list(alg.unit)]))[0] != Matrix.identity(f, self.dim):
            raise CertificationError("unit does not act as identity")
        if deep:
            pairs = [(i, j) for i in range(alg.dim) for j in range(alg.dim)]
        else:
            rng = random.Random(alg.dim * 31 + 7)
            k = min(alg.dim * alg.dim, 48)
            pairs = [(rng.randrange(alg.dim), rng.randrange(alg.dim)) for _ in range(k)]
        products = Matrix.from_dense(f, np.stack([alg.structure[i, j] for i, j in pairs]))
        for (i, j), rhs in zip(pairs, self.element_actions(products)):
            if self.actions[i] @ self.actions[j] != rhs:
                raise CertificationError(f"structure constants violated at ({i},{j})")


@dataclass
class ModuleMap:
    """Linear map of right modules; rows of matrix are images of source basis."""

    source: ExplicitModule
    target: ExplicitModule
    matrix: Matrix

    def check(self) -> None:
        for i in range(self.source.algebra.dim):
            lhs = self.source.actions[i] @ self.matrix
            rhs = self.matrix @ self.target.actions[i]
            if lhs != rhs:
                raise CertificationError(f"map does not intertwine basis element {i}")


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


def _graded_hom_rows(m: ExplicitModule, n: ExplicitModule) -> tuple[Matrix, list[range], list[range]]:
    """Module maps m -> n in weight-adapted bases, and the weight parts of m and n.

    A module map commutes with the weight idempotents, so in weight-adapted
    bases it is block diagonal, Y = diag(Y_a): only those entries are
    unknowns of the generator intertwiner system.  Returns its kernel basis
    as rows of flattened m.dim x n.dim matrices Y (intertwiner_rows).
    """
    left, m_parts = m.graded_generator_actions()
    right, n_parts = n.graded_generator_actions()
    return intertwiner_rows(left, right, m_parts, n_parts), m_parts, n_parts


def _to_given_bases(ys: Matrix, cm: Matrix, bn: Matrix) -> np.ndarray:
    """X_k = C_m Y_k B_n for every row Y_k of ys (a flattened m x n matrix), as a k x m x n array."""
    k, m, n = ys.nrows, cm.nrows, bn.nrows
    # right factor on the stacked Y_k, then the left factor on the Z_k side by side
    z = (ys.reshape(k * m, n) @ bn).dense().reshape(k, m, n)
    z = Matrix.from_dense(ys.field, z.transpose(1, 0, 2).reshape(m, k * n))
    return (cm @ z).dense().reshape(m, k, n).transpose(1, 0, 2)


def hom_space(m: ExplicitModule, n: ExplicitModule, verify: bool = True) -> list[ModuleMap]:
    """Basis of module maps m -> n, solved weight space by weight space.

    The maps Y of _graded_hom_rows are taken back to the given bases as
    X = C_m Y B_n, and the result is the reduced basis of their span, which
    is the basis kernel_from_rref gives for the full system.
    """
    if n.algebra is not m.algebra:
        raise ValueError("hom_space needs two modules over the same algebra")
    if m.dim == 0 or n.dim == 0:
        return []
    ys = _graded_hom_rows(m, n)[0]
    k = ys.nrows
    if k == 0:
        return []
    x = _to_given_bases(ys, m.weight_basis()[1], n.weight_basis()[0])
    maps = reduced_basis(Matrix.from_dense(m.algebra.field, x.reshape(k, m.dim * n.dim)))
    out = [ModuleMap(m, n, mat) for mat in unflatten(maps, m.dim, n.dim)]
    if verify:
        for h in out:
            h.check()
    return out


def _regular_hom_basis(m: ExplicitModule, q: ExplicitModule) -> list[ModuleMap]:
    """Hom(A, Q) = Q: the map for basis vector y sends b_i to y * act(b_i)."""
    return [ModuleMap(m, q, Matrix.vstack([a.select_rows([n]) for a in q.actions])) for n in range(q.dim)]


def _cokernel_projection(R: Matrix, rank: int, pivots: tuple) -> tuple[Matrix, Matrix]:
    """Projection onto the quotient by the row space of an rref, and a section.

    The projection pi has the kernel basis of R as columns, and the section
    sigma picks the free coordinates, so sigma @ pi is the identity.
    """
    pi_m = kernel_from_rref(R, rank, pivots).transpose()
    if not (R.select_rows(range(rank)) @ pi_m).is_zero():
        raise CertificationError("projection does not kill the image")
    pivset = set(pivots)
    free = [j for j in range(R.ncols) if j not in pivset]
    sigma = Matrix.identity(R.field, R.ncols).select_rows(free)
    return pi_m, sigma


def cyclic_submodule(parent: ExplicitModule, seeds: list) -> tuple[ExplicitModule, ModuleMap]:
    """Smallest action-stable subspace containing the seed row vectors."""
    alg = parent.algebra
    f = alg.field
    seed_m = Matrix.from_rows(f, [list(s) for s in seeds])
    sp = RowSpace(f, parent.dim)
    sp.insert(seed_m)
    sp.close(parent.generator_actions())
    U = sp.basis
    acts = []
    ut = U.transpose()
    for a in parent.actions:
        sol = ut.solve_many((U @ a).transpose())
        if sol is None:
            raise CertificationError("closure failed: action leaves the computed subspace")
        acts.append(sol.transpose())
    sub = ExplicitModule(alg, acts)
    return sub, ModuleMap(sub, parent, U)


def _tensor_seed(params: HeckeParams, m: int, antisym_scalar) -> list:
    """Coordinates of z^(tensor (d-m)/2) tensor e1^m with z = e1 e2 - c e2 e1."""
    d = params.d
    f = params.field
    lam2 = (d - m) // 2
    vec = [f.zero] * (1 << d)
    neg_c = f.neg(f.coerce(antisym_scalar))
    for mask in range(1 << lam2):
        bits = []
        coeff = f.one
        for t in range(lam2):
            if (mask >> t) & 1:
                bits.extend((1, 0))
                coeff = f.mul(coeff, neg_c)
            else:
                bits.extend((0, 1))
        bits.extend([0] * m)
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        vec[idx] = f.add(vec[idx], coeff)
    return vec


def standard_module(params: HeckeParams, m: int, algebra: ExplicitAlgebra | None = None) -> ExplicitModule:
    """Weyl module of weight m inside tensor space, validated by its dimension.

    The generating vector uses the q-antisymmetric convention
    z = e1 e2 - u e2 e1, falling back to u^(-1) if the cyclic closure does
    not have dimension m + 1; failure of both raises ConstructionError.
    """
    d = params.d
    if m < 0 or m > d or (d - m) % 2 != 0:
        raise ValueError(f"weight {m} not admissible in degree {d}")
    alg = algebra if algebra is not None else schur_algebra(params)
    parent = tensor_module(alg)
    tried = []
    for scalar in (params.u, params.u_inv):
        if scalar in tried:
            continue
        tried.append(scalar)
        seed = _tensor_seed(params, m, scalar)
        sub, incl = cyclic_submodule(parent, [seed])
        if sub.dim == m + 1:
            sub.label = f"Delta({m})"
            return sub
    raise ConstructionError(
        f"standard module of weight {m} has wrong dimension under both antisymmetry conventions"
    )


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


def _coord_products(field, structure, xrows: Matrix, yrows: Matrix) -> Matrix:
    """All pairwise products x*y of elements given by coordinate rows, x-major."""
    dim = structure.shape[0]
    # left multiplication table of each x: row s holds x*b_s
    lefts = unflatten(xrows @ Matrix.from_dense(field, structure.reshape(dim, dim * dim)), dim, dim)
    return Matrix.vstack([yrows @ left for left in lefts])


def _greedy_generating_rows(kb: Matrix, act: Matrix) -> Matrix:
    """Few coefficient rows whose hom combinations generate over End(Q).

    Row i of kb holds the coordinates of the i-th hom basis element in a
    faithful space of g = kb.ncols // a blocks of size a = act.nrows;
    composing with the l-th basis endomorphism acts on each block by column
    block l of act (a x e*a).  The rows of kb are independent, so the hom
    space has dimension kb.nrows.  The maps sum_j row[j]*homs[j] for the
    returned rows generate the hom space as a right End(Q)-module, so
    stacking them gives a left add(Q)-approximation with the same kernel as
    the universal one.  Minimal generating sets need genuine combinations,
    not just subsets (one generic element covers several isotypic strands at
    once); candidates are drawn at random and kept by marginal span gain,
    with a scan of the hom basis as fallback, so the loop terminates with a
    verified generating set: the rank of the chosen orbits reaches kb.nrows.
    Only the ranks of orbits enter, so any injective linear change of the
    coordinates that commutes with the action gives the same rows.
    """
    field = kb.field
    h, a = kb.nrows, act.nrows
    g, e = kb.ncols // a, act.ncols // a

    def orbits(rows: Matrix) -> list[Matrix]:
        # composites (n*g, e*a) of every block with every endomorphism, read per row as e x g*a
        n = rows.nrows
        comp = (rows.reshape(n * g, a) @ act).dense().reshape(n, g, e, a).transpose(0, 2, 1, 3)
        return [Matrix.from_dense(field, x) for x in comp.reshape(n, e, g * a)]

    acc = RowSpace(field, g * a)
    rng = np.random.default_rng(0xD0D + 131 * h + e)
    chosen: list[Matrix] = []
    while acc.dim < h:
        best = None
        best_gain = 0
        bound = min(e, h - acc.dim)
        cands = Matrix.from_dense(field, rng.integers(0, field.p, size=(8, h), dtype=np.int64))
        for k, orb in enumerate(orbits(cands @ kb)):
            gain = acc.residual_rank(orb)
            if gain > best_gain:
                best, best_gain = (cands.select_rows([k]), orb), gain
                if best_gain == bound:
                    break
        if best_gain == 0:
            unit = Matrix.identity(field, h)
            for i in range(h):
                orb = orbits(kb.select_rows([i]))[0]
                best_gain = acc.residual_rank(orb)
                if best_gain > 0:
                    best = (unit.select_rows([i]), orb)
                    break
        if best_gain == 0:
            raise CertificationError("orbits fail to span the hom space")
        chosen.append(best[0])
        acc.insert(best[1])
    return Matrix.vstack(chosen)


# a finite verdict never needs the split test, so skipping it above this size
# of dim Q * dim M only turns some infinite answers into at_least(cap)
_SPLIT_LIMIT = 8192


def _try_split(f_components: list[Matrix], cur: ExplicitModule, q: ExplicitModule) -> bool | None:
    """Exact retraction test: does some r = (r_k) in Hom(Q, cur)^g give sum_k F_k r_k = id.

    In weight-adapted bases (B, C of weight_basis) F_k reads F'_k = B_cur F_k C_q
    and a basis map Y_j of Hom(Q, cur) is block diagonal, so block (a, a) of
    F'_k Y_j is F'_k[a, a] Y_j[a, a] whatever F_k is.  sum_k F_k r_k - id is a
    module endomorphism of cur, block diagonal in those bases, so only the
    weight-diagonal blocks give equations: sum_a dim(cur e_a)^2 rows against
    (dim cur)^2 for the full system, which implies them, so a "no" is exact.
    A "yes" is certified in the given bases: the solved r must satisfy
    hstack(F_k) @ vstack(r_k) == identity, or CertificationError is raised.

    Returns None (test skipped) when dim Q * dim cur exceeds _SPLIT_LIMIT.
    """
    field = cur.algebra.field
    dm = cur.dim
    dq = q.dim
    if dq * dm > _SPLIT_LIMIT:
        return None
    ys, q_parts, m_parts = _graded_hom_rows(q, cur)
    h, g = ys.nrows, len(f_components)
    if h == 0:
        return False
    bm, cq = cur.weight_basis()[0], q.weight_basis()[1]
    f_stack = Matrix.hstack(f_components)
    # F'_k = B_cur F_k C_q for all k at once, read as a dm x g x dq array
    fg = ((bm @ f_stack).reshape(dm * g, dq) @ cq).dense().reshape(dm, g, dq)
    yg = ys.dense().reshape(h, dq, dm)
    # the equations of weight a: block (k, j) of vstack_k F'_k[a, a] @ hstack_j Y_j[a, a]
    # is the m_a x m_a block of F'_k Y_j, read as m_a^2 rows of column (k, j)
    rows, rhs = [], []
    for qa, ma in zip(q_parts, m_parts):
        na = len(ma)
        if na == 0:
            continue
        if len(qa) == 0:
            return False  # no map of Q reaches cur e_a, so no r restricts to the identity there
        sq, sm = slice(qa.start, qa.stop), slice(ma.start, ma.stop)
        fa = Matrix.from_dense(field, fg[sm, :, sq].transpose(1, 0, 2).reshape(g * na, len(qa)))
        ya = Matrix.from_dense(field, yg[:, sq, sm].transpose(1, 0, 2).reshape(len(qa), h * na))
        prod = (fa @ ya).dense().reshape(g, na, h, na).transpose(1, 3, 0, 2)
        rows.append(prod.reshape(na * na, g * h))
        rhs.append(np.eye(na, dtype=np.int64).reshape(na * na, 1))
    system = Matrix.from_dense(field, np.concatenate(rows))
    coeffs = system.solve_many(Matrix.from_dense(field, np.concatenate(rhs)))
    if coeffs is None:
        return False
    # r'_k = sum_j c_kj Y_j, then r_k = C_q r'_k B_cur in the given bases, stacked
    r = _to_given_bases(coeffs.reshape(g, h) @ ys, cq, bm).reshape(g * dq, dm)
    if f_stack @ Matrix.from_dense(field, r) != Matrix.identity(field, dm):
        raise CertificationError("the solved retraction is not a left inverse of the approximation")
    return True


def relative_domdim(
    m: ExplicitModule,
    q: ExplicitModule,
    cap: int | None = None,
    progress=None,
) -> DomdimResult:
    """Length of the longest exact add(Q)-coresolution of m detectable up to cap.

    Returns exact(n) when the (n+1)-th approximation fails injectivity,
    infinite() when an approximation splits (m embeds as a summand) or m is
    zero, and at_least(cap) when the cap is reached first.

    Every step holds a basis of Hom(cur, Q) as homs, one flattened map per
    row, and its greedy coordinates kb with the End(Q) action act on them.
    For the regular module row y of kb is the hom sending b_i to
    y * act(b_i), and for any other first module kb is homs; in both the
    E_l act by right multiplication, side by side.  Homs out of a cokernel
    are coefficient rows over the End(Q) basis, one block per presentation
    slot, and act is End(Q)'s right-multiplication table (cached on q with
    the E_l), so orbits never touch the big flat maps.
    """
    alg = m.algebra
    field = alg.field
    if q.algebra is not alg:
        raise ValueError("relative_domdim needs two modules over the same algebra")
    if cap is None:
        cap = 4 * alg.degree if alg.degree else 4 * max(1, q.dim)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if m.dim == 0:
        return DomdimResult.infinite()
    cached = getattr(q, "_end_cache", None)
    if cached is None:
        end_q = [em.matrix for em in hom_space(q, q, verify=False)]
        struct = _structure_constants(field, end_q)[0].reshape(len(end_q), -1)
        cached = q._end_cache = (Matrix.hstack(end_q), Matrix.from_dense(field, struct))
    end_stack, table = cached
    act = end_stack
    if m.is_regular:
        kb, homs = Matrix.identity(field, q.dim), flatten(hm.matrix for hm in _regular_hom_basis(m, q))
    else:
        maps = hom_space(m, q, verify=False)
        if not maps:
            return DomdimResult.exact(0)
        kb = homs = flatten(hm.matrix for hm in maps)
    cur, dq, steps = m, q.dim, 0
    while True:
        # injectivity of the approximation only depends on the intersection
        # of the kernels, so test all hom maps side by side before any selection
        h = homs.nrows
        side = homs.dense().reshape(h, cur.dim, dq).transpose(1, 0, 2)
        if Matrix.from_dense(field, side.reshape(cur.dim, h * dq)).rank() < cur.dim:
            return DomdimResult.exact(steps)
        gen_rows = _greedy_generating_rows(kb, act)
        comps = unflatten(gen_rows @ homs, cur.dim, dq)
        if progress:
            progress(f"step {steps + 1}: module dim {cur.dim}, hom dim {h}, multiplicity {len(comps)}")
        R, rank, pivots = Matrix.hstack(comps).rref()
        if rank != cur.dim:
            raise CertificationError("generating subset lost injectivity")
        if _try_split(comps, cur, q):
            return DomdimResult.infinite()
        steps += 1
        if steps >= cap:
            return DomdimResult.at_least(cap)
        g = len(comps)
        if g * dq == rank:
            return DomdimResult.infinite()  # the cokernel is zero
        # cokernel of cur -> Q^g without materializing block diagonal actions
        pi_m, sigma = _cokernel_projection(R, rank, pivots)
        sig_blocks = [sigma.select_columns(range(s * dq, (s + 1) * dq)) for s in range(g)]
        cur = ExplicitModule(alg, [Matrix.hstack([sb @ ab for sb in sig_blocks]) @ pi_m for ab in q.actions])
        # Hom(coker, Q) from left exactness of Hom(-, Q) on the presentation
        kb = Matrix.vstack([flat_products(F, end_stack) for F in comps]).transpose().kernel_basis_matrix()
        if kb.nrows == 0:
            return DomdimResult.exact(steps)
        # the induced map on the cokernel is sigma @ vstack_s(H_s); flattening
        # makes all of them one product of the kernel basis with sigma_s E_j
        homs = kb @ Matrix.vstack([flat_products(sb, end_stack) for sb in sig_blocks])
        act = table


# ---------------------------------------------------------------------------
# verification suite used by the command line and the acceptance tests

def _relations_verdicts(d: int, config: str, params: HeckeParams) -> list[dict]:
    f = params.field
    out = []

    rep = check_relations(params.tl_params())
    out.append(_verdict("tl_relations", d, config, "ok", "ok" if rep.ok else f"violations: {rep.violations}"))

    ok = True
    one = HeckeElement.one(params)
    gens = [HeckeElement.generator(params, i) for i in range(1, d)]
    for i, t in enumerate(gens, start=1):
        if not ((t - one.scale(params.u)) * (t + one.scale(params.u_inv))).is_zero():
            ok = False
    for a in range(len(gens) - 1):
        if gens[a] * gens[a + 1] * gens[a] != gens[a + 1] * gens[a] * gens[a + 1]:
            ok = False
    for a in range(len(gens)):
        for b in range(a + 2, len(gens)):
            if gens[a] * gens[b] != gens[b] * gens[a]:
                ok = False
    out.append(_verdict("hecke_presentation", d, config, "ok", "ok" if ok else "violated"))

    rng = random.Random(20260814)
    G = symmetric_group(d)
    ok = True
    for _ in range(8):
        a = HeckeElement(params, {rng.choice(G): f.random(rng) for _ in range(2)})
        b = HeckeElement(params, {rng.choice(G): f.random(rng) for _ in range(2)})
        if phi(a * b) != phi(a) * phi(b):
            ok = False
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
    ok = True
    for s, T in enumerate(Ts, start=1):
        if not ((T - I.scale(params.u)) @ (T + I.scale(params.u_inv))).is_zero():
            ok = False
        U = tl_action(params, s)
        if U != T - I.scale(params.u) or (U @ U) != U.scale(params.delta):
            ok = False
    for a in range(len(Ts) - 1):
        if Ts[a] @ Ts[a + 1] @ Ts[a] != Ts[a + 1] @ Ts[a] @ Ts[a + 1]:
            ok = False
    out.append(_verdict("action_presentation", d, config, "ok", "ok" if ok else "violated"))
    return out


def _verdict(check_id: str, d: int, config: str, expected, got) -> dict:
    return {
        "check_id": check_id,
        "d": d,
        "config": config,
        "expected": expected,
        "got": got,
        "pass": expected == got,
    }


def verify_suite(d: int, config: str, cap: int | None = None, progress=None) -> list[dict]:
    """Cross-check closed forms against the oracle for one blessed configuration."""
    from math import comb

    from .domdim import FieldRegime, domdim_char_tilting, domdim_regular, domdim_standard
    from .tensor_action import double_centralizer_report
    from .tl import catalan

    if config not in BLESSED_CONFIGS:
        raise ValueError(f"unknown config {config!r}; choose from {sorted(BLESSED_CONFIGS)}")
    if not 2 <= d <= 6:
        raise ValueError("verification is supported for 2 <= d <= 6")
    params = BLESSED_CONFIGS[config](d)
    regime = FieldRegime(quantum_char_is_2=True)
    out = _relations_verdicts(d, config, params)

    dz = double_centralizer_report(params, progress=progress)
    out.append(_verdict("tl_image_dim", d, config, catalan(d), dz["tl_image_dim"]))
    out.append(_verdict("commutant_dim", d, config, comb(d + 3, 3), dz["commutant_dim"]))
    out.append(
        _verdict(
            "double_centralizer",
            d,
            config,
            True,
            dz["tl_image_equals_double_commutant"] and dz["commutant_closed_under_product"],
        )
    )

    alg = schur_algebra(params, progress=progress)
    q = tensor_module(alg)
    reg = regular_module(alg)
    expected_reg = domdim_regular(d, regime)
    got = relative_domdim(reg, q, cap=cap, progress=progress)
    out.append(_verdict("oracle_regular_domdim", d, config, encode_extnat(expected_reg), got.encode()))

    if d % 2 == 0:
        t0 = standard_module(params, 0, algebra=alg)
        expected_t = domdim_char_tilting(d, regime)
        got_t = relative_domdim(t0, q, cap=cap, progress=progress)
        out.append(_verdict("oracle_tilting_domdim", d, config, encode_extnat(expected_t), got_t.encode()))
        factor_ok = got_t.kind == "exact" and got.kind == "exact" and got.value == 2 * got_t.value
        out.append(_verdict("oracle_factor_two", d, config, True, factor_ok))
        if d <= 4:
            chain_ok = True
            for mm in range(0, d + 1, 2):
                delta = standard_module(params, mm, algebra=alg)
                want = domdim_standard(d, mm, regime)
                have = relative_domdim(delta, q, cap=cap)
                if not have.matches(want):
                    chain_ok = False
            out.append(_verdict("oracle_standard_chain", d, config, True, chain_ok))

    got_summand = relative_domdim(q, q, cap=cap)
    out.append(_verdict("oracle_summand_infinite", d, config, "infinity", got_summand.encode()))
    return out
