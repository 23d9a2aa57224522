import random
from math import comb

import numpy as np
import pytest

from tlschur.domdim import INFINITY, FieldRegime, domdim_regular, domdim_standard
from tlschur.fields import GF, QQ
from tlschur.hecke import HeckeParams, classical_char2, quantum_ell2
from tlschur.linalg import Matrix, RowSpace, flatten, unflatten
from tlschur import oracle
from tlschur.oracle import (
    CertificationError,
    DomdimResult,
    ExplicitAlgebra,
    ExplicitModule,
    _check_idempotents,
    _check_module_maps,
    _regular_hom_basis,
    _tensor_end,
    _top_lifts,
    cyclic_submodule,
    direct_sum,
    hom_space,
    regular_module,
    relative_domdim,
    schur_algebra,
    standard_module,
    tensor_module,
)
from tlschur.tensor_action import double_centralizer_report, structure_constants, weight_projections
from tlschur.tl import catalan
from tlschur.weights import tilting_delta_mults

CONFIGS = [classical_char2, quantum_ell2]
IDS = ["gf2-u1", "gf5-u2"]


def gf7_u3(d):
    # q = u^(-2) = 4 has quantum characteristic 3: away from the blessed regime
    return HeckeParams(d, GF(7), 3)


def gf3_u1(d):
    # q = 1 in characteristic 3: the symmetric group algebra away from the blessed regime
    return HeckeParams(d, GF(3), 1)


GRADED = CONFIGS + [gf7_u3]
GRADED_IDS = IDS + ["gf7-u3"]


def _random_invertible(f, n: int, rng: random.Random) -> Matrix:
    while True:
        g = Matrix.from_rows(f, [[f.coerce(rng.randrange(f.p)) for _ in range(n)] for _ in range(n)])
        if g.rank() == n:
            return g


def _conjugate(mod: ExplicitModule, g: Matrix) -> ExplicitModule:
    """The same module in the basis of the rows of g."""
    g_inv = g.solve_many(Matrix.identity(mod.algebra.field, mod.dim))
    return ExplicitModule(mod.algebra, [g @ a @ g_inv for a in mod.actions], label=f"g({mod.label})")


def _change_basis(mod: ExplicitModule, seed: int) -> ExplicitModule:
    """The same module in a random basis, so its basis vectors are not weight vectors."""
    return _conjugate(mod, _random_invertible(mod.algebra.field, mod.dim, random.Random(seed)))


def _change_weight_basis(mod: ExplicitModule, seed: int) -> ExplicitModule:
    """The same module in another basis of weight vectors: a random invertible block on each
    weight space, then the basis shuffled, so the weight parts are not contiguous."""
    f, rng = mod.algebra.field, random.Random(seed)
    g = np.zeros((mod.dim, mod.dim), dtype=np.int64)
    for part in mod.weight_parts():
        if part:
            g[np.ix_(part, part)] = _random_invertible(f, len(part), rng).dense()
    order = list(range(mod.dim))
    rng.shuffle(order)
    return _conjugate(mod, Matrix.from_dense(f, g[order]))


def check_module_map(source: ExplicitModule, target: ExplicitModule, mat: Matrix) -> None:
    """The map with matrix mat intertwines the action of every basis element, not only the generators."""
    for i in range(source.algebra.dim):
        assert source.actions[i] @ mat == mat @ target.actions[i], f"map does not intertwine basis element {i}"


def validate_module(mod: ExplicitModule, deep: bool = False) -> None:
    """The unit acts as the identity, and the actions respect the structure constants.

    deep checks every pair of basis elements, otherwise 48 seeded random pairs.
    """
    alg, f = mod.algebra, mod.algebra.field
    assert mod.element_actions(Matrix.from_rows(f, [list(alg.unit)]))[0] == Matrix.identity(f, mod.dim), "unit"
    if deep:
        pairs = [(i, j) for i in range(alg.dim) for j in range(alg.dim)]
    else:
        rng = random.Random(alg.dim * 31 + 7)
        pairs = [(rng.randrange(alg.dim), rng.randrange(alg.dim)) for _ in range(min(alg.dim * alg.dim, 48))]
    products = Matrix.from_dense(f, np.stack([alg.structure[i, j] for i, j in pairs]))
    for (i, j), rhs in zip(pairs, mod.element_actions(products)):
        assert mod.actions[i] @ mod.actions[j] == rhs, f"structure constants violated at ({i},{j})"


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [2, 3])
def test_schur_algebra_dimension_and_modules(make, d):
    alg = schur_algebra(make(d))
    assert alg.dim == comb(d + 3, 3)
    assert alg.degree == d
    q = tensor_module(alg)
    reg = regular_module(alg)
    assert q.dim == 1 << d and reg.dim == alg.dim
    validate_module(q, deep=True)
    validate_module(reg, deep=True)
    assert reg.is_regular and not q.is_regular


def test_schur_algebra_semisimple_gf7():
    # GF(7) with u = 3: q = 4 has quantum characteristic 3, semisimple at d = 2
    alg = schur_algebra(HeckeParams(2, GF(7), 3))
    assert alg.dim == 10
    validate_module(regular_module(alg), deep=True)


def test_oracle_rejects_non_prime_field():
    with pytest.raises(ValueError, match="QQ"):
        Matrix.zeros(QQ, 2, 2)
    with pytest.raises(ValueError, match="QQ"):
        Matrix.identity(QQ, 2)
    with pytest.raises(ValueError, match="QQ"):
        Matrix.from_rows(QQ, [[1, 2]])
    with pytest.raises(ValueError, match="QQ"):
        Matrix.from_dense(QQ, Matrix.identity(GF(7), 2).dense())
    with pytest.raises(ValueError, match="QQ"):
        schur_algebra(HeckeParams(2, QQ, 1))
    with pytest.raises(ValueError, match="QQ"):
        double_centralizer_report(HeckeParams(2, QQ, 1))


@pytest.mark.parametrize(
    "make, counts",
    [
        pytest.param(classical_char2, [2, 2, 3, 2, 2], id="gf2-u1"),
        pytest.param(quantum_ell2, [2, 2, 2, 2, 2], id="gf5-u2"),
        pytest.param(gf3_u1, [2, 2, 2, 2, 2], id="gf3-u1"),
        pytest.param(gf7_u3, [2, 2, 2, 2, 2], id="gf7-u3"),
    ],
)
def test_generator_rows_generate(make, counts):
    alg = schur_algebra(make(3))
    # closure of the stored generator rows under right multiplication is everything
    sp = RowSpace(alg.field, alg.dim)
    unit = Matrix.from_rows(alg.field, [list(alg.unit)])
    sp.insert(unit)
    sp.insert(alg.gen_rows)
    grew = True
    while grew:
        grew = False
        for j in range(alg.dim):
            if sp.insert(sp.basis @ alg.right_mult_matrix(j)):
                grew = True
    assert sp.dim == alg.dim
    assert alg.gen_rows.nrows < alg.dim
    # generator counts at d = 2..6; entries are uniform in the field (a draw from range(5)
    # reduced mod 2 is 1 with probability 2/5, and over GF(2) it took 3, 2, 3, 2, 3)
    assert [schur_algebra(make(d)).gen_rows.nrows for d in range(2, 7)] == counts


@pytest.mark.parametrize(
    "make, d",
    [pytest.param(make, 2, id=cid) for make, cid in zip(GRADED, GRADED_IDS)]
    + [pytest.param(make, d, id=f"{cid}-d{d}") for make, cid in zip(GRADED, GRADED_IDS) for d in (3, 4)],
)
def test_endomorphisms_of_tensor_space(make, d, dense_intertwiners):
    alg = schur_algebra(make(d))
    q = tensor_module(alg)
    end_q = unflatten(hom_space(q, q), q.dim, q.dim)
    assert len(end_q) == catalan(d)
    for h in end_q:
        check_module_map(q, q, h)
    acts = q.generator_actions()
    assert end_q == dense_intertwiners(acts, acts)


@pytest.mark.parametrize("make", GRADED + [gf3_u1], ids=GRADED_IDS + ["gf3-u1"])
@pytest.mark.parametrize("d", [3, 4])
def test_hom_space_matches_dense(make, d, dense_intertwiners):
    params = make(d)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    reg = regular_module(alg)
    # bases of weight vectors whose weight parts are not contiguous, on either side
    cases = [(q, reg), (q, _change_weight_basis(reg, 1)), (q, _change_weight_basis(direct_sum(reg, q), 2))]
    cases += [(_change_weight_basis(q, 3), reg)]
    # standard modules have empty weight spaces
    cases += [(standard_module(params, m, algebra=alg), q) for m in range(d % 2, d + 1, 2)]
    for src, dst in cases:
        got = unflatten(hom_space(src, dst), src.dim, dst.dim)
        assert got == dense_intertwiners(src.generator_actions(), dst.generator_actions()), (src.label, dst.label)


def test_weight_vector_check_survives_optimized_mode(run_optimized):
    # the regular module at d = 3 in the random basis of _change_basis(reg, 1)
    code = (
        "import random\n"
        "from tlschur.hecke import classical_char2\n"
        "from tlschur.linalg import Matrix\n"
        "from tlschur.oracle import CertificationError, ExplicitModule, hom_space, regular_module, schur_algebra\n"
        "from tlschur.oracle import tensor_module\n"
        "alg = schur_algebra(classical_char2(3))\n"
        "reg, f, rng = regular_module(alg), alg.field, random.Random(1)\n"
        "while True:\n"
        "    g = Matrix.from_rows(f, [[f.coerce(rng.randrange(f.p)) for _ in range(reg.dim)] for _ in range(reg.dim)])\n"
        "    if g.rank() == reg.dim:\n"
        "        break\n"
        "g_inv = g.solve_many(Matrix.identity(f, reg.dim))\n"
        "mixed = ExplicitModule(alg, [g @ a @ g_inv for a in reg.actions])\n"
        "try:\n"
        "    hom_space(tensor_module(alg), mixed)\n"
        "except CertificationError as exc:\n"
        "    print(__debug__, 'raised', str(exc).replace(' ', '_'))\n"
    )
    out = run_optimized(code)
    assert out[:3] == ["False", "raised", "the_module's_basis_is_not_made_of_weight_vectors"], out[-1]


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_structure_constants_match_solve(make, d, solved_structure_constants):
    # S(2, d) with its weight projections: every product of two basis elements is
    # formed on weight blocks and read off at the own columns of its block
    alg = schur_algebra(make(d))
    extra = weight_projections(alg.field, alg.basis[0].nrows)
    c, unit, rows = structure_constants(alg.basis)
    want_c, want_unit, want_rows = solved_structure_constants(alg.field, alg.basis, extra)
    assert c.dtype == np.int64 and np.array_equal(c, want_c)
    assert unit == want_unit and rows == want_rows


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
def test_structure_constants_of_an_ungraded_basis(make, solved_structure_constants):
    # a random invertible recombination of the S(2, 3) basis spreads every element over
    # many weight blocks: the algebra is the same, but the basis is not one that
    # commutant_basis gives, and the block-by-block read rejects it
    alg = schur_algebra(make(3))
    f, dim = alg.field, alg.dim
    rng = random.Random(dim)
    while True:
        g = Matrix.from_rows(f, [[f.coerce(rng.randrange(f.p)) for _ in range(dim)] for _ in range(dim)])
        if g.rank() == dim:
            break
    basis = unflatten(g @ flatten(alg.basis), 8, 8)
    extra = weight_projections(f, 8)
    assert solved_structure_constants(f, basis, extra) is not None
    with pytest.raises(CertificationError, match="exactly one weight block"):
        structure_constants(basis)


def _units(f, *entries):
    """The 4 x 4 matrices on V^(tensor 2) with ones at the given positions, one per list of positions.

    The basis words 11, 12, 21, 22 have weights 0, 1, 1, 2, so entries (1, 1),
    (1, 2), (2, 1) and (2, 2) make up the one weight block (1, 1) of size 2 x 2.
    """
    out = []
    for ones in entries:
        rows = [[0] * 4 for _ in range(4)]
        for i, j in ones:
            rows[i][j] = 1
        out.append(Matrix.from_rows(f, rows))
    return out


@pytest.mark.parametrize("f", [GF(2), GF(5)], ids=["GF(2)", "GF(5)"])
def test_structure_constants_reject_bad_bases(f, solved_structure_constants):
    e00, e33, e11_22, e12, e21, e11, e00_33 = _units(
        f, [(0, 0)], [(3, 3)], [(1, 1), (2, 2)], [(1, 2)], [(2, 1)], [(1, 1)], [(0, 0), (3, 3)]
    )
    # the span holds the identity, but E_12 E_21 = E_11 leaves it
    basis = [e00, e33, e11_22, e12, e21]
    with pytest.raises(RuntimeError, match="not closed") as exc:
        structure_constants(basis)
    assert exc.type is RuntimeError
    assert solved_structure_constants(f, basis, weight_projections(f, 4)) is None
    with pytest.raises(CertificationError, match="dependent"):
        structure_constants([e00, e00 + e00 + e00])
    # span{E_00} is closed but holds no identity
    with pytest.raises(CertificationError, match="identity or a weight projection"):
        structure_constants([e00])
    assert solved_structure_constants(f, [e00], weight_projections(f, 4)) is None
    # closed spans that hold the identity, in bases of the wrong form: E_11 + E_22 is 1 at
    # the own column (1, 1) of E_11, and E_00 + E_33 is nonzero on two weight blocks
    for bad, match in (([e00, e33, e11_22, e11], "not reduced"), ([e00_33, e00, e11_22], "exactly one weight block")):
        assert solved_structure_constants(f, bad, weight_projections(f, 4)) is not None
        with pytest.raises(CertificationError, match=match):
            structure_constants(bad)


def test_structure_constants_past_float64_take_int64(solved_structure_constants):
    # 2 (p - 1)^2 < 2^53 <= 4 (p - 1)^2: products of length 2 are exact in float64, of length 4 only in int64
    f = GF(50000017)
    e00, e11 = (Matrix.from_rows(f, m) for m in ([[1, 0], [0, 0]], [[0, 0], [0, 1]]))
    c, unit, _ = structure_constants([e00, e11])
    assert unit == (1, 1) and c[0, 0, 0] == c[1, 1, 1] == 1
    # k x M_2 x k: the four matrix units of weight block (1, 1) are read with products of length 4.  The
    # reference solves by rref, which rejects this p (its panel bound), but the constants are 0 and 1 over
    # every field, so it runs over GF(5)
    entries = [(0, 0)], [(3, 3)], [(1, 1)], [(1, 2)], [(2, 1)], [(2, 2)]
    c, unit, rows = structure_constants(_units(f, *entries))
    g = GF(5)
    c5, unit5, rows5 = solved_structure_constants(g, _units(g, *entries), weight_projections(g, 4))
    assert np.array_equal(c, c5) and unit == unit5 and np.array_equal(rows.dense(), rows5.dense())
    # 3 (p - 1)^2 >= 2^63: past int64 too
    with pytest.raises(ValueError, match="overflow int64"):
        structure_constants(_units(GF(2147483647), *entries))


def test_structure_constant_checks_survive_optimized_mode(run_optimized):
    code = (
        "from tlschur.fields import GF\n"
        "from tlschur.linalg import Matrix\n"
        "from tlschur.tensor_action import structure_constants\n"
        "f = GF(5)\n"
        "def e(*ones):\n"
        "    rows = [[0] * 4 for _ in range(4)]\n"
        "    for i, j in ones:\n"
        "        rows[i][j] = 1\n"
        "    return Matrix.from_rows(f, rows)\n"
        "diag = [e((0, 0)), e((3, 3)), e((1, 1), (2, 2))]\n"
        "bases = (diag + [e((1, 2)), e((2, 1))], [e((0, 0)), e((0, 0)).scale(2)], [e((0, 0))],\n"
        "         diag + [e((1, 1))], [e((0, 0), (3, 3)), e((0, 0)), e((1, 1), (2, 2))])\n"
        "for basis in bases:\n"
        "    try:\n"
        "        structure_constants(basis)\n"
        "    except RuntimeError as exc:\n"
        "        print(__debug__, type(exc).__name__, str(exc).split()[-1])\n"
    )
    out = run_optimized(code)
    want = ["RuntimeError closed", "CertificationError dependent", "CertificationError basis"]
    want += ["CertificationError dependent", "CertificationError block"]
    assert out[:15] == " ".join(f"False {w}" for w in want).split(), out[-1]


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
def test_weight_idempotents(make):
    alg = schur_algebra(make(3))
    e = alg.idempotents
    assert e.nrows == 4
    q = tensor_module(alg)
    # e_a acts on tensor space as the projection onto the words with a letters 2
    for a, proj in enumerate(q.element_actions(e)):
        want = [[int(i == j and bin(i).count("1") == a) for j in range(8)] for i in range(8)]
        assert proj == Matrix.from_rows(alg.field, want)
    mats = q.element_actions(e)
    _check_idempotents(mats)
    mixed = [mats[0] + mats[1], *mats[1:]]
    with pytest.raises(CertificationError, match="orthogonal"):
        _check_idempotents(mixed)
    with pytest.raises(CertificationError, match="sum to the unit"):
        _check_idempotents(mats[:3])


def test_hom_space_checks_its_inputs():
    alg = schur_algebra(classical_char2(3))
    other = schur_algebra(quantum_ell2(3))
    with pytest.raises(ValueError, match="same algebra"):
        hom_space(tensor_module(alg), tensor_module(other))
    short = ExplicitAlgebra(
        alg.field, alg.basis, alg.structure, alg.unit, alg.gen_rows, alg.idempotents.select_rows([0, 1, 2])
    )
    q = tensor_module(short)
    # without e_3 the word 222 lies in no weight part
    with pytest.raises(CertificationError, match="not made of weight vectors"):
        hom_space(q, q)
    q, mixed = tensor_module(alg), _change_basis(regular_module(alg), 1)
    for src, dst in [(q, mixed), (mixed, q)]:
        with pytest.raises(CertificationError, match="not made of weight vectors"):
            hom_space(src, dst)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_corrupted_solve_fails_the_certificate(make, monkeypatch):
    # every solved endomorphism of Q also sends the first word of weight 1 to the top
    # word 11: End(Q) at d = 2 stays local, and the regular verdict comes out as 1, not
    # 2, unless the solved maps themselves are certified
    solve = oracle.intertwiner_rows

    def corrupted(left, right, row_parts, col_parts):
        ys = solve(left, right, row_parts, col_parts)
        dense = ys.dense().astype(np.int64)
        dense[:, row_parts[1][0] * right[0].nrows + col_parts[0][0]] += 1
        return Matrix.from_dense(ys.field, dense)

    alg = schur_algebra(make(2))
    monkeypatch.setattr(oracle, "intertwiner_rows", corrupted)
    with pytest.raises(CertificationError, match="not a module map"):
        relative_domdim(regular_module(alg), tensor_module(alg))


def test_hom_space_is_a_matrix_of_flattened_maps():
    params = classical_char2(3)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    delta = standard_module(params, 3, algebra=alg)
    homs = hom_space(delta, q)
    assert (homs.nrows, homs.ncols) == (1, delta.dim * q.dim)
    zero = ExplicitModule(alg, [Matrix.zeros(alg.field, 0, 0)] * alg.dim)
    for src, dst in [(zero, q), (q, zero)]:
        empty = hom_space(src, dst)
        assert (empty.nrows, empty.ncols) == (0, 0)


def test_module_operations_reject_mixed_algebras():
    a = tensor_module(schur_algebra(classical_char2(2)))
    b = tensor_module(schur_algebra(quantum_ell2(2)))
    with pytest.raises(ValueError, match="same algebra"):
        direct_sum(a, b)
    with pytest.raises(ValueError, match="same algebra"):
        relative_domdim(regular_module(a.algebra), b)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_regular_hom_basis_matches_solver(make):
    alg = schur_algebra(make(2))
    q = tensor_module(alg)
    reg = regular_module(alg)
    fast = _regular_hom_basis(q)
    slow = hom_space(reg, q)
    assert fast.nrows == slow.nrows == q.dim
    span = RowSpace(alg.field, reg.dim * q.dim)
    for mat in unflatten(fast, reg.dim, q.dim):
        check_module_map(reg, q, mat)
    span.insert(fast)
    assert span.dim == fast.nrows
    assert span.contains(slow)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_cyclic_submodule_closure(make):
    alg = schur_algebra(make(2))
    q = tensor_module(alg)
    f = alg.field
    seed = [f.one] + [f.zero] * (q.dim - 1)
    sub, incl = cyclic_submodule(q, [seed])
    assert 1 <= sub.dim <= q.dim
    check_module_map(sub, q, incl)
    assert incl.rank() == sub.dim
    validate_module(sub)


def _letter_by_letter_seed(params: HeckeParams, m: int) -> list:
    """z^(tensor (d-m)/2) tensor e1^m summed word by word: the reference for oracle._tensor_seed."""
    f, lam2 = params.field, (params.d - m) // 2
    vec = [f.zero] * (1 << params.d)
    for mask in range(1 << lam2):
        idx, coeff = 0, f.one
        for t in range(lam2):
            # letters 21 with coefficient -u^(-1) where bit t is set, 12 otherwise
            if (mask >> t) & 1:
                idx, coeff = (idx << 2) | 0b10, f.mul(coeff, f.neg(params.u_inv))
            else:
                idx = (idx << 2) | 0b01
        idx <<= m
        vec[idx] = f.add(vec[idx], coeff)
    return vec


@pytest.mark.parametrize("p,u", [(2, 1), (5, 2), (7, 3), (3, 1), (257, 16), (1009, 469)])
def test_tensor_seed_matches_word_by_word_sum(p, u):
    for d in range(1, 8):
        params = HeckeParams(d, GF(p), u)
        for m in range(d % 2, d + 1, 2):
            assert oracle._tensor_seed(params, m) == _letter_by_letter_seed(params, m), (d, m)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_standard_module_dimensions(make, d):
    params = make(d)
    alg = schur_algebra(params)
    for m in range(d % 2, d + 1, 2):
        delta = standard_module(params, m, algebra=alg)
        assert delta.dim == m + 1
        validate_module(delta)
    with pytest.raises(ValueError):
        standard_module(params, d + 1, algebra=alg)


def test_domdim_result_encoding():
    assert DomdimResult.exact(3).encode() == 3
    assert DomdimResult.infinite().encode() == "infinity"
    assert DomdimResult.at_least(5).encode() == ">=5"
    from tlschur.domdim import INFINITY

    assert DomdimResult.infinite().matches(INFINITY)
    assert DomdimResult.exact(2).matches(2)
    assert not DomdimResult.at_least(2).matches(2)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_domdim_degree_2(make):
    params = make(2)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    assert relative_domdim(regular_module(alg), q).matches(2)
    assert relative_domdim(standard_module(params, 0, algebra=alg), q).matches(1)
    assert relative_domdim(standard_module(params, 2, algebra=alg), q).matches(2)
    assert relative_domdim(q, q).is_infinite


def test_domdim_gf7_is_infinite():
    # no quantum characteristic 2: the regular module embeds split into add(Q)
    alg = schur_algebra(HeckeParams(2, GF(7), 3))
    q = tensor_module(alg)
    assert relative_domdim(regular_module(alg), q).is_infinite


def test_domdim_zero_module_and_cap():
    params = classical_char2(4)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    zero = ExplicitModule(alg, [Matrix.zeros(alg.field, 0, 0)] * alg.dim)
    assert relative_domdim(zero, q).is_infinite
    res = relative_domdim(regular_module(alg), q, cap=1)
    assert res.kind == "at_least" and res.value == 1


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_direct_sum_min_law(make):
    params = make(4)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    d0 = standard_module(params, 0, algebra=alg)
    d4 = standard_module(params, 4, algebra=alg)
    assert relative_domdim(direct_sum(d0, d4), q).matches(2)  # min(2, 4)
    d2 = standard_module(params, 2, algebra=alg)
    assert relative_domdim(direct_sum(d2, q), q).matches(3)  # min(3, infinity)


def _blocks(stack: Matrix, n: int) -> list[Matrix]:
    """The n x n blocks of an hstack, left to right."""
    return [stack.select_columns(range(j * n, (j + 1) * n)) for j in range(stack.ncols // n)]


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_generating_combinations_generate(make):
    # the top lifts h_i e_k of the regular module's hom space, as maps into Q
    alg = schur_algebra(make(3))
    q = tensor_module(alg)
    reg = regular_module(alg)
    end = _tensor_end(q)
    homs = unflatten(_regular_hom_basis(q), reg.dim, q.dim)
    picks = _top_lifts(flatten(homs), end.tops, end.radical, end.corners)
    projections = _blocks(end.tops, q.dim)
    lifts = [homs[i] @ projections[k] for k, i in picks]
    span = RowSpace(alg.field, reg.dim * q.dim)
    span.insert(flatten(F @ E for F in lifts for E in end.basis))
    # the lifts generate the full hom space over the endomorphisms
    assert span.dim == len(homs)
    # and genuinely compress: fewer maps than the hom dimension
    assert len(picks) < len(homs)


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
@pytest.mark.parametrize("d", [3, 4])
def test_greedy_rows_agree_in_hom_and_flat_coordinates(make, d, post_composition_action):
    # every step lifts the top from the flattened maps; in hom-basis
    # coordinates, acted on by post-composition, it must pick the same lifts
    params = make(d)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    end = _tensor_end(q)
    for mod in [q] + [standard_module(params, m, algebra=alg) for m in range(d % 2, d + 1, 2)]:
        homs = unflatten(hom_space(mod, q), mod.dim, q.dim)

        def in_homs(stack):
            mats = _blocks(stack, q.dim)
            return post_composition_action(homs, mats) if mats else Matrix.zeros(alg.field, len(homs), 0)

        ident = Matrix.identity(alg.field, len(homs))
        want = _top_lifts(ident, in_homs(end.tops), in_homs(end.radical), [in_homs(y) for y in end.corners])
        assert _top_lifts(flatten(homs), end.tops, end.radical, end.corners) == want, mod.label


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
def test_selection_agrees_with_universal_chain(make, universal_domdim):
    # minimal approximations against every hom basis map and the dense split test
    for d in (2, 3):
        params = make(d)
        alg = schur_algebra(params)
        q = tensor_module(alg)
        targets = [regular_module(alg), q] + [standard_module(params, m, algebra=alg) for m in range(d % 2, d + 1, 2)]
        for mod in targets:
            assert relative_domdim(mod, q).encode() == universal_domdim(mod, q, 4 * d), (d, mod.label)


def _step_dims(line: str) -> tuple[int, int]:
    # (module dim, hom dim) of a progress line of relative_domdim
    dims = line.split("module dim ")[1].split(", hom dim ")
    return int(dims[0]), int(dims[1].split(",")[0])


# dims of the cokernels after each of the four injective steps at d = 4
@pytest.mark.parametrize("make,dims", [(classical_char2, [9, 3, 9, 27]), (quantum_ell2, [9, 3, 9, 15])], ids=IDS)
def test_coresolution_cokernels_are_modules(make, dims, reference_cokernels):
    alg = schur_algebra(make(4))
    q = tensor_module(alg)
    reg = regular_module(alg)
    lines = []
    assert relative_domdim(reg, q, progress=lines.append).matches(4)
    built = reference_cokernels(reg, q, len(lines) - 1)
    assert [mod.dim for mod in built] == dims
    for mod in built:
        validate_module(mod, deep=True)
    # the oracle reads each cokernel's dim and left-exactness hom space without
    # building it: they are the dims of the module and of the direct solver's hom space
    assert [(mod.dim, hom_space(mod, q).nrows) for mod in built] == [_step_dims(line) for line in lines[1:]]


def _step_lines(steps, d):
    # (module dim, hom dim, multiplicity of each T(m) from m = d down) per step
    return [
        f"step {n}: module dim {dm}, hom dim {dh}, approximation "
        + ", ".join(f"T({d - 2 * k})^{c}" for k, c in enumerate(mults))
        for n, (dm, dh, mults) in enumerate(steps, start=1)
    ]


_INFINITE_D6 = [(84, 64, (7, 1, 3, 0)), (15, 15, (0, 3, 0, 0)), (3, 15, (0, 0, 0, 3))]


# the progress lines of each coresolution step of the regular module; an
# approximation that stops being minimal shows up here.  The d = 5 cases are
# the benchmark's coresolution-d5 workload
@pytest.mark.parametrize(
    "make,d,steps,verdict",
    [
        pytest.param(
            classical_char2,
            4,
            [(35, 16, (5, 1)), (9, 9, (0, 3)), (3, 6, (0, 3)), (9, 9, (3, 3)), (27, 18, (3, 6))],
            4,
            id="gf2-u1",
        ),
        pytest.param(
            quantum_ell2,
            4,
            [(35, 16, (5, 1)), (9, 9, (0, 3)), (3, 6, (0, 3)), (9, 9, (3, 0)), (15, 3, (3, 0))],
            4,
            id="gf5-u2",
        ),
        pytest.param(classical_char2, 5, [(56, 32, (6, 4, 0)), (8, 20, (0, 0, 4))], INFINITY, id="gf2-u1-d5"),
        pytest.param(quantum_ell2, 5, [(56, 32, (6, 4, 2))], INFINITY, id="gf5-u2-d5"),
        pytest.param(
            classical_char2,
            6,
            [(84, 64, (7, 2, 0)), (44, 104, (0, 4, 6)), (12, 36, (0, 0, 4)), (4, 20, (0, 0, 4))]
            + [(12, 36, (0, 4, 4)), (36, 76, (4, 0, 4)), (44, 60, (4, 0, 4))],
            6,
            id="gf2-u1-d6",
        ),
        pytest.param(
            quantum_ell2,
            6,
            [(84, 64, (7, 2, 1)), (20, 20, (0, 4, 0)), (12, 36, (0, 0, 4)), (4, 20, (0, 0, 4))]
            + [(12, 36, (0, 4, 0)), (20, 20, (4, 0, 0)), (28, 4, (4, 0, 0))],
            6,
            id="gf5-u2-d6",
        ),
        # the infinite side at d = 6, away from quantum characteristic 2
        pytest.param(gf3_u1, 6, _INFINITE_D6, INFINITY, id="gf3-u1-d6"),
        pytest.param(gf7_u3, 6, _INFINITE_D6, INFINITY, id="gf7-u3-d6"),
    ],
)
def test_regular_coresolution_multiplicities_degree_4(make, d, steps, verdict):
    alg = schur_algebra(make(d))
    lines = []
    res = relative_domdim(regular_module(alg), tensor_module(alg), progress=lines.append)
    assert res.matches(verdict)
    assert lines == _step_lines(steps, d)


# the same for Q and the standard modules at d = 4, whose first step lifts the
# top from the flattened hom maps instead of the regular module's vectors of Q:
# the chains run through the standard modules Delta(4) -> Delta(2) -> Delta(0)
_DELTA_CHAIN = [(5, 1, (1, 0)), (3, 3, (0, 1)), (1, 2, (0, 1))]


@pytest.mark.parametrize(
    "make,tail",
    [(classical_char2, [(3, 3, (1, 1)), (9, 6, (1, 2))]), (quantum_ell2, [(3, 3, (1, 0)), (5, 1, (1, 0))])],
    ids=IDS,
)
def test_generic_coresolution_multiplicities_degree_4(make, tail):
    steps = {
        "tensor space": [(16, 14, (1, 2))],
        "Delta(0)": _DELTA_CHAIN[2:] + tail,
        "Delta(2)": _DELTA_CHAIN[1:] + tail,
        "Delta(4)": _DELTA_CHAIN + tail,
    }
    params = make(4)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    regime = FieldRegime(quantum_char_is_2=True)
    cases = [(q, INFINITY)] + [(standard_module(params, m, algebra=alg), domdim_standard(4, m, regime)) for m in (0, 2, 4)]
    for mod, verdict in cases:
        lines = []
        assert relative_domdim(mod, q, progress=lines.append).matches(verdict), mod.label
        assert lines == _step_lines(steps[mod.label], 4), mod.label


def _split_cases():
    cases = [pytest.param(make, d, True, id=f"{cid}-d{d}") for d in (2, 3, 4) for make, cid in zip(GRADED, GRADED_IDS)]
    # the regular module at d = 5 is a case of test_regular_coresolution_multiplicities_degree_4
    return cases + [pytest.param(make, 5, False, id=f"{cid}-d5") for make, cid in zip(GRADED, GRADED_IDS)]


@pytest.mark.parametrize("make,d,with_regular", _split_cases())
def test_split_test_matches_dense(make, d, with_regular, dense_split, reference_cokernels):
    # a module is in add(Q) iff its minimal approximation is an isomorphism:
    # one step of relative_domdim says infinity exactly when the universal
    # approximation by every hom basis map splits, for every module of a chain
    params = make(d)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    targets = [q] + [standard_module(params, m, algebra=alg) for m in range(d % 2, d + 1, 2)]
    if with_regular:
        targets.insert(0, regular_module(alg))
    for mod in targets:
        lines = []
        res = relative_domdim(mod, q, progress=lines.append)
        chain = [mod] + reference_cokernels(mod, q, 4 * d)
        homs = [unflatten(hom_space(cur, q), cur.dim, q.dim) for cur in chain]
        # the chain is the oracle's: one module per step, and a last cokernel without maps to Q
        dims = [(cur.dim, len(h)) for cur, h in zip(chain, homs)]
        assert dims[: len(lines)] == [_step_dims(line) for line in lines], mod.label
        assert [n for _, n in dims[len(lines) :]] in ([], [0]), mod.label
        answers = [relative_domdim(cur, q, cap=1).is_infinite for cur in chain]
        assert answers == [dense_split(h, cur, q) for cur, h in zip(chain, homs)], mod.label
        # only the last module of a chain can be in add(Q), and then the verdict is infinite
        assert answers == [False] * (len(chain) - 1) + [res.is_infinite], (mod.label, answers)


def test_greedy_certification_survives_optimized_mode(run_optimized):
    # under a zero action every lift and orbit is zero, so no lift spans the hom space
    code = (
        "from tlschur.fields import GF2\n"
        "from tlschur.linalg import Matrix\n"
        "from tlschur.oracle import CertificationError, _top_lifts\n"
        "try:\n"
        "    zero = Matrix.zeros(GF2, 4, 4)\n"
        "    _top_lifts(Matrix.identity(GF2, 4), Matrix.zeros(GF2, 4, 8), Matrix.zeros(GF2, 4, 0), [zero, zero])\n"
        "except CertificationError as exc:\n"
        "    print(__debug__, 'raised', str(exc).replace(' ', '_'))\n"
    )
    out = run_optimized(code)
    assert out[:3] == ["False", "raised", "the_lifted_top_does_not_generate_the_hom_space"], out[-1]


def test_module_constructor_checks_survive_optimized_mode(run_optimized):
    # 9 action matrices for the 10-dimensional algebra at d = 2, then one of the wrong size
    code = (
        "from tlschur.hecke import classical_char2\n"
        "from tlschur.linalg import Matrix\n"
        "from tlschur.oracle import ExplicitModule, schur_algebra, tensor_module\n"
        "alg = schur_algebra(classical_char2(2))\n"
        "q = tensor_module(alg)\n"
        "for acts in (q.actions[:-1], q.actions[:-1] + [Matrix.identity(alg.field, 3)]):\n"
        "    try:\n"
        "        ExplicitModule(alg, acts)\n"
        "    except ValueError:\n"
        "        print(__debug__, 'raised')\n"
    )
    out = run_optimized(code)
    assert out[:4] == ["False", "raised", "False", "raised"], out[-1]


def test_module_map_check_survives_optimized_mode(run_optimized):
    # E_01 sends the weight-(2, 0) word 11 to the weight-(1, 1) word 12, so it
    # does not commute with the weight idempotents of the algebra, nor with all
    # of its generators
    code = (
        "from tlschur.hecke import classical_char2\n"
        "from tlschur.linalg import Matrix, flatten\n"
        "from tlschur.oracle import CertificationError, _check_module_maps, schur_algebra, tensor_module\n"
        "q = tensor_module(schur_algebra(classical_char2(2)))\n"
        "f, gens = q.algebra.field, q.generator_actions()\n"
        "m = Matrix.from_rows(f, [[int(i == 0 and j == 1) for j in range(q.dim)] for i in range(q.dim)])\n"
        "_check_module_maps(flatten([Matrix.identity(f, q.dim)]), gens, gens, 'the identity')\n"
        "try:\n"
        "    _check_module_maps(flatten([Matrix.identity(f, q.dim), m]), gens, gens, 'E_01')\n"
        "except CertificationError as exc:\n"
        "    print(__debug__, 'raised', exc)\n"
    )
    out = run_optimized(code)
    assert out[:3] == ["False", "raised", "E_01"], out[-1]


# odd primes with u^2 = -1, so q = u^(-2) = -1 has quantum characteristic 2
LARGE = [(257, 16), (1009, 469)]


@pytest.mark.parametrize("p,u", LARGE, ids=["gf257-u16", "gf1009-u469"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_regular_domdim_large_prime(p, u, d):
    assert (u * u) % p == p - 1
    alg = schur_algebra(HeckeParams(d, GF(p), u))
    got = relative_domdim(regular_module(alg), tensor_module(alg))
    assert got.matches(domdim_regular(d, FieldRegime(quantum_char_is_2=True)))


@pytest.mark.parametrize("p,u", LARGE, ids=["gf257-u16", "gf1009-u469"])
def test_regular_domdim_large_prime_optimized_mode(p, u, run_optimized):
    code = (
        "from tlschur.fields import GF\n"
        "from tlschur.hecke import HeckeParams\n"
        "from tlschur.oracle import regular_module, relative_domdim, schur_algebra, tensor_module\n"
        f"alg = schur_algebra(HeckeParams(4, GF({p}), {u}))\n"
        "print(__debug__, relative_domdim(regular_module(alg), tensor_module(alg)).encode())\n"
    )
    out = run_optimized(code)
    assert out[:2] == ["False", "4"], out[-1]


# Q = k^3 with weights 0, 1, 1 over S = span(e0, e1, x), where x sends v1 to v0: Q = P + L
# with P = span(v0, v1) and L = span(v2), and End(Q) = span(ea, eb, c) with ea = 1 on P,
# eb = 1 on L and c: v1 -> v2.  The tops are X_0 = k v0 and X_1 = k v2, and J = k c.
# attempt(q, maps) splits the End(Q) spanned by maps and prints the mults and dim J x 3,
# or the certificate that failed.
_SPLIT_PRELUDE = (
    "from tlschur.fields import GF\n"
    "from tlschur.linalg import Matrix, flatten\n"
    "from tlschur.oracle import CertificationError, ExplicitAlgebra, ExplicitModule, _split_end\n"
    "f = GF(5)\n"
    "def mat(*rows):\n"
    "    return Matrix.from_rows(f, rows)\n"
    "def diag(*xs):\n"
    "    return mat(*[[x if i == j else 0 for j in range(3)] for i, x in enumerate(xs)])\n"
    "e0, e1, x = diag(1, 0, 0), diag(0, 1, 1), mat([0, 0, 0], [1, 0, 0], [0, 0, 0])\n"
    "ea, eb, c = diag(1, 1, 0), diag(0, 0, 1), mat([0, 0, 0], [0, 0, 1], [0, 0, 0])\n"
    "def module(basis, gen_rows):\n"
    "    alg = ExplicitAlgebra(f, basis, None, (1, 1, 0), mat(*gen_rows), mat([1, 0, 0], [0, 1, 0]))\n"
    "    return ExplicitModule(alg, basis)\n"
    "def attempt(q, maps):\n"
    "    try:\n"
    "        end = _split_end(q, flatten(maps))\n"
    "        print(__debug__, 'split', *end.mults, end.radical.ncols)\n"
    "    except CertificationError as exc:\n"
    "        print(__debug__, str(exc).replace(' ', '_'))\n"
    "q = module([e0, e1, x], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])\n"
)


def test_split_certificate_survives_optimized_mode(run_optimized):
    # the honest split, then: an S basis element on two weight blocks (x plus v0 -> v1), a map
    # v2 -> v1 that moves the top X_1, End(Q) without ea and eb apart (rho of rank 1), and
    # diag(0, 1, 0) in the kernel of rho, which is not nilpotent
    code = _SPLIT_PRELUDE + (
        "attempt(q, [ea, eb, c])\n"
        "attempt(module([e0, e1, x + mat([0, 1, 0], [0, 0, 0], [0, 0, 0])], [[0, 0, 1]]), [ea, eb, c])\n"
        "attempt(q, [ea, eb, c, mat([0, 0, 0], [0, 0, 0], [0, 1, 0])])\n"
        "attempt(q, [ea + eb, c])\n"
        "attempt(q, [ea, eb, diag(0, 1, 0)])\n"
    )
    out = run_optimized(code)
    assert out[:-1] == [
        "False", "split", "1", "1", "3",
        "False", "a_basis_element_of_S_is_not_on_exactly_one_weight_block",
        "False", "an_endomorphism_does_not_keep_the_weight_top_of_Q",
        "False", "End(Q)_does_not_map_onto_the_endomorphisms_of_the_weight_tops",
        "False", "the_kernel_of_the_action_on_the_weight_tops_is_not_nilpotent",
    ], out[-1]


def test_lift_certificate_survives_optimized_mode(run_optimized):
    # diag(1, 3, 0) lifts the unit of X_0, but 3 = 1/2 is a fixed point of x -> 3x^2 - 2x^3
    # that is no idempotent; the split diag(1, 0, 0) + diag(0, 1, 1) is orthogonal but does not
    # commute with x, and once x is left out of the generators, diag(0, 1, 1) has a plane at
    # weight 1 where a summand T has a line
    code = _SPLIT_PRELUDE + (
        "attempt(q, [diag(1, 3, 0), eb])\n"
        "attempt(q, [diag(1, 0, 0), diag(0, 1, 1)])\n"
        "attempt(module([e0, e1, x], [[1, 0, 0], [0, 1, 0]]), [diag(1, 0, 0), diag(0, 1, 1)])\n"
    )
    out = run_optimized(code)
    assert out[:-1] == [
        "False", "a_lift_of_a_matrix_unit_of_the_weight_tops_is_not_idempotent",
        "False", "a_lifted_idempotent_is_not_an_endomorphism_of_Q",
        "False", "a_primitive_idempotent_is_not_a_line_at_its_weight_and_zero_above_it",
    ], out[-1]


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_tensor_end_draws_no_random_numbers(make, monkeypatch):
    # the generator rows are drawn when the algebra is built; the split itself draws nothing
    alg = schur_algebra(make(5))

    def refuse(*args, **kwargs):
        raise AssertionError("the split of End(Q) drew random numbers")

    monkeypatch.setattr(random, "Random", refuse)
    end = _tensor_end(tensor_module(alg))
    assert sum(a * t for a, t in zip(end.mults, end.dims)) == 32


def test_domdim_does_not_import_numpy_random(run_python):
    # a verdict draws random numbers only in _generator_rows, from the stdlib
    # random module, so it does not pay for importing numpy.random
    code = (
        "import sys\n"
        "from tlschur.hecke import classical_char2\n"
        "from tlschur.oracle import regular_module, relative_domdim, schur_algebra, tensor_module\n"
        "alg = schur_algebra(classical_char2(3))\n"
        "print(relative_domdim(regular_module(alg), tensor_module(alg)).encode(), 'numpy.random' in sys.modules)\n"
    )
    out = run_python(code)
    assert out[:2] == ["infinity", "False"], out[-1]


def _tensor_multiplicities(d: int) -> dict[int, int]:
    """Multiplicity of each T(m) in V^(tensor d) at p = 2, from the Delta-characters and tilting_delta_mults."""
    delta = {m: comb(d, (d - m) // 2) - (comb(d, (d - m) // 2 - 1) if m < d else 0) for m in range(d % 2, d + 1, 2)}
    mults = {}
    for m in sorted(delta, reverse=True):
        mults[m] = delta[m] - sum(a for n, a in mults.items() if m in tilting_delta_mults(n))
    return {m: a for m, a in mults.items() if a}


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_tensor_summands_match_tilting_closed_forms(d):
    end = _tensor_end(tensor_module(schur_algebra(classical_char2(d))))
    want = _tensor_multiplicities(d)
    assert end.weights == sorted(want, reverse=True)
    assert dict(zip(end.weights, end.mults)) == want
    assert end.dims == [sum(n + 1 for n in tilting_delta_mults(m)) for m in end.weights]
    assert sum(a * t for a, t in zip(end.mults, end.dims)) == 1 << d
    assert end.radical.ncols == (catalan(d) - sum(a * a for a in end.mults)) << d


# (highest weight, multiplicity, dim) of the summands T(m) of V^(tensor d), and dim J
@pytest.mark.parametrize(
    "make,d,summands,radical",
    [
        pytest.param(quantum_ell2, 2, [(2, 1, 4)], 1, id="gf5-u2-d2"),
        pytest.param(quantum_ell2, 3, [(3, 1, 4), (1, 2, 2)], 0, id="gf5-u2-d3"),
        pytest.param(quantum_ell2, 4, [(4, 1, 8), (2, 2, 4)], 9, id="gf5-u2-d4"),
        pytest.param(quantum_ell2, 5, [(5, 1, 6), (3, 4, 4), (1, 5, 2)], 0, id="gf5-u2-d5"),
        pytest.param(quantum_ell2, 6, [(6, 1, 12), (4, 4, 8), (2, 5, 4)], 90, id="gf5-u2-d6"),
        pytest.param(gf7_u3, 2, [(2, 1, 3), (0, 1, 1)], 0, id="gf7-u3-d2"),
        pytest.param(gf7_u3, 3, [(3, 1, 6), (1, 1, 2)], 3, id="gf7-u3-d3"),
        pytest.param(gf7_u3, 4, [(4, 1, 6), (2, 3, 3), (0, 1, 1)], 3, id="gf7-u3-d4"),
        pytest.param(gf7_u3, 5, [(5, 1, 6), (3, 4, 6), (1, 1, 2)], 24, id="gf7-u3-d5"),
        pytest.param(gf7_u3, 6, [(6, 1, 12), (4, 4, 6), (2, 9, 3), (0, 1, 1)], 33, id="gf7-u3-d6"),
        pytest.param(gf3_u1, 2, [(2, 1, 3), (0, 1, 1)], 0, id="gf3-u1-d2"),
        pytest.param(gf3_u1, 3, [(3, 1, 6), (1, 1, 2)], 3, id="gf3-u1-d3"),
        pytest.param(gf3_u1, 4, [(4, 1, 6), (2, 3, 3), (0, 1, 1)], 3, id="gf3-u1-d4"),
        pytest.param(gf3_u1, 5, [(5, 1, 6), (3, 4, 6), (1, 1, 2)], 24, id="gf3-u1-d5"),
        pytest.param(gf3_u1, 6, [(6, 1, 12), (4, 4, 6), (2, 9, 3), (0, 1, 1)], 33, id="gf3-u1-d6"),
    ],
)
def test_tensor_summands_pinned(make, d, summands, radical):
    end = _tensor_end(tensor_module(schur_algebra(make(d))))
    assert list(zip(end.weights, end.mults, end.dims)) == summands
    assert end.radical.ncols >> d == radical


@pytest.mark.parametrize(
    "make,d",
    [pytest.param(make, 4, id=i) for make, i in zip(GRADED, GRADED_IDS)]
    # d=6 over gf5-u2 has the largest radical here (dim 90), so its lifts go deepest
    + [pytest.param(quantum_ell2, 6, id="gf5-u2-d6"), pytest.param(gf3_u1, 4, id="gf3-u1")],
)
def test_primitive_idempotents_split_tensor_space(make, d):
    alg = schur_algebra(make(d))
    q = tensor_module(alg)
    end = _tensor_end(q)
    f = alg.field
    mats = end.primitive
    assert len(mats) == sum(end.mults)
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            assert a @ b == (a if i == j else Matrix.zeros(f, q.dim, q.dim)), (i, j)
    total = mats[0]
    for a in mats[1:]:
        total = total + a
    assert total == Matrix.identity(f, q.dim)
    assert [a.rank() for a in mats] == [t for t, a in zip(end.dims, end.mults) for _ in range(a)]


def test_tensor_end_rejects_other_modules():
    params = classical_char2(3)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    others = [regular_module(alg), standard_module(params, 1, algebra=alg), _change_basis(q, 3)]
    for other in others:
        with pytest.raises(ValueError, match="tensor_module"):
            _tensor_end(other)
        with pytest.raises(ValueError, match="tensor_module"):
            relative_domdim(regular_module(alg), other)


@pytest.mark.parametrize(
    "params, qchar2",
    [
        (classical_char2(2), True),
        (quantum_ell2(2), True),
        (HeckeParams(2, GF(257), 16), True),
        (HeckeParams(2, GF(3), 1), False),
        (HeckeParams(2, GF(7), 3), False),
    ],
    ids=["gf2-u1", "gf5-u2", "gf257-u16", "gf3-u1", "gf7-u3"],
)
def test_quantum_characteristic_two_is_one_plus_q_zero(params, qchar2):
    assert params.quantum_char_is_2 is qchar2


@pytest.mark.parametrize("p, u", [(3, 1), (7, 3)], ids=["gf3-u1", "gf7-u3"])
@pytest.mark.parametrize("d", [2, 4])
def test_verify_outside_quantum_characteristic_two(p, u, d, monkeypatch):
    # T(0) is a summand of Q, both domdims are infinite, and Delta(m) has no closed form
    monkeypatch.setattr(oracle, "BLESSED_CONFIGS", {"other": lambda d: HeckeParams(d, GF(p), u)})
    rows = {r["check_id"]: r for r in oracle.verify_suite(d, "other")}
    assert all(r["pass"] for r in rows.values()), [r for r in rows.values() if not r["pass"]]
    assert rows["oracle_delta0_not_summand"]["got"] is False
    assert rows["oracle_regular_domdim"]["got"] == rows["oracle_tilting_domdim"]["got"] == "infinity"
    assert rows["oracle_factor_two"]["got"] is True
    assert "oracle_standard_chain" not in rows


def test_verify_regime_follows_params(monkeypatch):
    # GF(257) u=16 is no blessed config, but q = -1: the finite closed form applies at even d
    params = HeckeParams(2, GF(257), 16)
    monkeypatch.setattr(oracle, "BLESSED_CONFIGS", {"gf257-u16": lambda d: params})
    rows = {r["check_id"]: r for r in oracle.verify_suite(2, "gf257-u16")}
    assert rows["oracle_regular_domdim"]["expected"] == domdim_regular(2, FieldRegime(quantum_char_is_2=True))
    assert all(r["pass"] for r in rows.values()), [r for r in rows.values() if not r["pass"]]
