import random
from math import comb

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
    _greedy_generating_rows,
    _regular_hom_basis,
    cyclic_submodule,
    direct_sum,
    hom_space,
    regular_module,
    relative_domdim,
    schur_algebra,
    standard_module,
    tensor_module,
)
from tlschur.tensor_action import double_centralizer_report
from tlschur.tl import catalan

CONFIGS = [classical_char2, quantum_ell2]
IDS = ["gf2-u1", "gf5-u2"]


def gf7_u3(d):
    # q = u^(-2) = 4 has quantum characteristic 3: away from the blessed regime
    return HeckeParams(d, GF(7), 3)


GRADED = CONFIGS + [gf7_u3]
GRADED_IDS = IDS + ["gf7-u3"]


def _change_basis(mod: ExplicitModule, seed: int) -> ExplicitModule:
    """The same module in a random basis, so its weight spaces are not coordinate blocks."""
    f = mod.algebra.field
    rng = random.Random(seed)
    while True:
        g = Matrix.from_rows(f, [[f.coerce(rng.randrange(f.p)) for _ in range(mod.dim)] for _ in range(mod.dim)])
        g_inv = g.solve_many(Matrix.identity(f, mod.dim))
        if g_inv is not None:
            return ExplicitModule(mod.algebra, [g @ a @ g_inv for a in mod.actions], label=f"g({mod.label})")


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [2, 3])
def test_schur_algebra_dimension_and_modules(make, d):
    alg = schur_algebra(make(d))
    assert alg.dim == comb(d + 3, 3)
    assert alg.degree == d
    q = tensor_module(alg)
    reg = regular_module(alg)
    assert q.dim == 1 << d and reg.dim == alg.dim
    q.validate(deep=True)
    reg.validate(deep=True)
    assert reg.is_regular and not q.is_regular


def test_schur_algebra_semisimple_gf7():
    # GF(7) with u = 3: q = 4 has quantum characteristic 3, semisimple at d = 2
    alg = schur_algebra(HeckeParams(2, GF(7), 3))
    assert alg.dim == 10
    regular_module(alg).validate(deep=True)


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


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_generator_rows_generate(make):
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


@pytest.mark.parametrize(
    "make, d",
    [pytest.param(make, 2, id=cid) for make, cid in zip(GRADED, GRADED_IDS)]
    + [pytest.param(make, d, id=f"{cid}-d{d}") for make, cid in zip(GRADED, GRADED_IDS) for d in (3, 4)],
)
def test_endomorphisms_of_tensor_space(make, d, dense_intertwiners):
    alg = schur_algebra(make(d))
    q = tensor_module(alg)
    end_q = hom_space(q, q)
    assert len(end_q) == catalan(d)
    for h in end_q:
        h.check()
    acts = q.generator_actions()
    assert [h.matrix for h in end_q] == dense_intertwiners(acts, acts)


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
@pytest.mark.parametrize("d", [3, 4])
def test_hom_space_matches_dense(make, d, dense_intertwiners):
    params = make(d)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    reg = regular_module(alg)
    cases = [(q, reg), (q, _change_basis(reg, 1)), (q, _change_basis(direct_sum(reg, q), 2))]
    # standard modules have empty weight spaces
    cases += [(standard_module(params, m, algebra=alg), q) for m in range(d % 2, d + 1, 2)]
    for src, dst in cases:
        got = [h.matrix for h in hom_space(src, dst)]
        assert got == dense_intertwiners(src.generator_actions(), dst.generator_actions()), (src.label, dst.label)


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
    mixed = Matrix.vstack([e.select_rows([0]) + e.select_rows([1]), e.select_rows([1, 2, 3])])
    with pytest.raises(CertificationError, match="orthogonal"):
        _check_idempotents(alg.field, alg.structure, alg.unit, mixed)
    with pytest.raises(CertificationError, match="sum to the unit"):
        _check_idempotents(alg.field, alg.structure, alg.unit, e.select_rows([0, 1, 2]))


def test_hom_space_checks_its_inputs():
    alg = schur_algebra(classical_char2(3))
    other = schur_algebra(quantum_ell2(3))
    with pytest.raises(ValueError, match="same algebra"):
        hom_space(tensor_module(alg), tensor_module(other))
    short = ExplicitAlgebra(
        alg.field, alg.basis, alg.structure, alg.unit, alg.gen_rows, alg.idempotents.select_rows([0, 1, 2])
    )
    q = tensor_module(short)
    with pytest.raises(CertificationError, match="split"):
        hom_space(q, q)


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
    fast = _regular_hom_basis(reg, q)
    slow = hom_space(reg, q)
    assert len(fast) == len(slow) == q.dim
    span = RowSpace(alg.field, reg.dim * q.dim)
    for h in fast:
        h.check()
    span.insert(flatten(h.matrix for h in fast))
    assert span.dim == len(fast)
    assert span.contains(flatten(h.matrix for h in slow))


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_cyclic_submodule_closure(make):
    alg = schur_algebra(make(2))
    q = tensor_module(alg)
    f = alg.field
    seed = [f.one] + [f.zero] * (q.dim - 1)
    sub, incl = cyclic_submodule(q, [seed])
    assert 1 <= sub.dim <= q.dim
    incl.check()
    assert incl.matrix.rank() == sub.dim
    sub.validate()


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_standard_module_dimensions(make, d):
    params = make(d)
    alg = schur_algebra(params)
    for m in range(d % 2, d + 1, 2):
        delta = standard_module(params, m, algebra=alg)
        assert delta.dim == m + 1
        delta.validate()
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


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_generating_combinations_generate(make):
    params = make(3)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    reg = regular_module(alg)
    homs = _regular_hom_basis(reg, q)
    end_q = hom_space(q, q, verify=False)
    act = Matrix.hstack([E.matrix for E in end_q])
    rows = _greedy_generating_rows(Matrix.identity(alg.field, q.dim), act)
    flat = flatten(h.matrix for h in homs)
    span = RowSpace(alg.field, flat.ncols)
    span.insert(flatten(F @ E.matrix for F in unflatten(rows @ flat, reg.dim, q.dim) for E in end_q))
    # chosen combinations generate the full hom space over the endomorphisms
    assert span.dim == len(homs)
    # and genuinely compress: fewer maps than the hom dimension
    assert rows.nrows < len(homs)


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
@pytest.mark.parametrize("d", [3, 4])
def test_greedy_rows_agree_in_hom_and_flat_coordinates(make, d, post_composition_action):
    # the first step of any module but the regular one runs the greedy on the
    # flattened maps; in hom-basis coordinates it must pick the same rows
    params = make(d)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    end_q = [E.matrix for E in hom_space(q, q, verify=False)]
    for mod in [q] + [standard_module(params, m, algebra=alg) for m in range(d % 2, d + 1, 2)]:
        homs = [h.matrix for h in hom_space(mod, q, verify=False)]
        in_homs = _greedy_generating_rows(Matrix.identity(alg.field, len(homs)), post_composition_action(homs, end_q))
        assert _greedy_generating_rows(flatten(homs), Matrix.hstack(end_q)) == in_homs, mod.label


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_selection_agrees_with_universal_chain(make, monkeypatch):
    params = make(2)
    alg = schur_algebra(params)
    q = tensor_module(alg)

    def targets():
        return [
            regular_module(alg),
            standard_module(params, 0, algebra=alg),
            standard_module(params, 2, algebra=alg),
        ]

    chosen = [relative_domdim(m, q) for m in targets()]
    monkeypatch.setattr(
        oracle,
        "_greedy_generating_rows",
        lambda kb, act: Matrix.identity(kb.field, kb.nrows),
    )
    universal = [relative_domdim(m, q) for m in targets()]
    assert [r.encode() for r in chosen] == [r.encode() for r in universal]


# dims of the cokernels after each of the four injective steps at d = 4
@pytest.mark.parametrize("make,dims", [(classical_char2, [45, 51, 45, 51]), (quantum_ell2, [45, 51, 45, 35])], ids=IDS)
def test_coresolution_cokernels_are_modules(make, dims, monkeypatch):
    alg = schur_algebra(make(4))
    q = tensor_module(alg)
    reg = regular_module(alg)
    built = []

    def recording(*args, **kwargs):
        mod = ExplicitModule(*args, **kwargs)
        built.append(mod)
        return mod

    monkeypatch.setattr(oracle, "ExplicitModule", recording)
    assert relative_domdim(reg, q).matches(4)
    assert [mod.dim for mod in built] == dims
    for mod in built:
        mod.validate(deep=True)


# (module dim, hom dim, multiplicity) of each coresolution step of the regular
# module; a generating set that stops being small shows up here.  The d = 5
# cases are the benchmark's coresolution-d5 workload, which splits at its last step
@pytest.mark.parametrize(
    "make,d,steps,verdict",
    [
        pytest.param(classical_char2, 4, [(35, 16, 5), (45, 54, 6), (51, 30, 6), (45, 54, 6)], 4, id="gf2-u1"),
        pytest.param(quantum_ell2, 4, [(35, 16, 5), (45, 54, 6), (51, 30, 6), (45, 54, 5)], 4, id="gf5-u2"),
        pytest.param(classical_char2, 5, [(56, 32, 6), (136, 220, 7)], INFINITY, id="gf2-u1-d5"),
        pytest.param(quantum_ell2, 5, [(56, 32, 6)], INFINITY, id="gf5-u2-d5"),
    ],
)
def test_regular_coresolution_multiplicities_degree_4(make, d, steps, verdict):
    alg = schur_algebra(make(d))
    lines = []
    res = relative_domdim(regular_module(alg), tensor_module(alg), progress=lines.append)
    assert res.matches(verdict)
    assert lines == [
        f"step {n}: module dim {dm}, hom dim {dh}, multiplicity {g}" for n, (dm, dh, g) in enumerate(steps, start=1)
    ]


# the same for Q and the standard modules at d = 4, whose first step runs the
# greedy on the flattened hom maps instead of the regular module's vectors of Q
def _generic_steps(last):
    return {
        "tensor space": [(16, 14, 1)],
        "Delta(0)": [(1, 2, 1), (15, 12, 2)],
        "Delta(2)": [(3, 3, 1), (13, 11, 1), (3, 3, 1)],
        "Delta(4)": [(5, 1, 1), (11, 13, 2), (21, 15, 2), (11, 13, last)],
    }


@pytest.mark.parametrize("make,steps", [(classical_char2, _generic_steps(2)), (quantum_ell2, _generic_steps(1))], ids=IDS)
def test_generic_coresolution_multiplicities_degree_4(make, steps):
    params = make(4)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    regime = FieldRegime(quantum_char_is_2=True)
    cases = [(q, INFINITY)] + [(standard_module(params, m, algebra=alg), domdim_standard(4, m, regime)) for m in (0, 2, 4)]
    for mod, verdict in cases:
        lines = []
        assert relative_domdim(mod, q, progress=lines.append).matches(verdict), mod.label
        assert lines == [
            f"step {n}: module dim {dm}, hom dim {dh}, multiplicity {g}"
            for n, (dm, dh, g) in enumerate(steps[mod.label], start=1)
        ], mod.label


def _split_cases():
    cases = [pytest.param(make, d, True, id=f"{cid}-d{d}") for d in (2, 3, 4) for make, cid in zip(GRADED, GRADED_IDS)]
    # the regular module at d = 5 is a case of test_regular_coresolution_multiplicities_degree_4
    return cases + [pytest.param(make, 5, False, id=f"{cid}-d5") for make, cid in zip(GRADED, GRADED_IDS)]


@pytest.mark.parametrize("make,d,with_regular", _split_cases())
def test_split_test_matches_dense(make, d, with_regular, dense_split, monkeypatch):
    params = make(d)
    alg = schur_algebra(params)
    q = tensor_module(alg)
    targets = [q] + [standard_module(params, m, algebra=alg) for m in range(d % 2, d + 1, 2)]
    if with_regular:
        targets.insert(0, regular_module(alg))
    graded = oracle._try_split
    answers = []

    def both(f_components, cur, qq):
        got = graded(f_components, cur, qq)
        assert got == dense_split(f_components, cur, qq), (cur.dim, len(f_components))
        answers.append(got)
        return got

    monkeypatch.setattr(oracle, "_try_split", both)
    for mod in targets:
        answers.clear()
        res = relative_domdim(mod, q)
        # every step runs the split test, and an infinite verdict is the split of the last one
        assert len(answers) >= 1 and res.is_infinite == (answers[-1] is True), (mod.label, answers)


def test_greedy_certification_survives_optimized_mode(run_optimized):
    # under a zero action every orbit is zero, so no pick spans the hom space
    code = (
        "from tlschur.fields import GF2\n"
        "from tlschur.linalg import Matrix\n"
        "from tlschur.oracle import CertificationError, _greedy_generating_rows\n"
        "try:\n"
        "    _greedy_generating_rows(Matrix.identity(GF2, 4), Matrix.zeros(GF2, 4, 8))\n"
        "except CertificationError as exc:\n"
        "    print(__debug__, 'raised', str(exc).replace(' ', '_'))\n"
    )
    out = run_optimized(code)
    assert out[:3] == ["False", "raised", "orbits_fail_to_span_the_hom_space"], out[-1]


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
    # does not commute with the weight idempotents of the algebra
    code = (
        "from tlschur.hecke import classical_char2\n"
        "from tlschur.linalg import Matrix\n"
        "from tlschur.oracle import CertificationError, ModuleMap, schur_algebra, tensor_module\n"
        "q = tensor_module(schur_algebra(classical_char2(2)))\n"
        "f = q.algebra.field\n"
        "m = Matrix.from_rows(f, [[int(i == 0 and j == 1) for j in range(q.dim)] for i in range(q.dim)])\n"
        "try:\n"
        "    ModuleMap(q, q, m).check()\n"
        "except CertificationError:\n"
        "    print(__debug__, 'raised')\n"
    )
    out = run_optimized(code)
    assert out[:2] == ["False", "raised"], out[-1]


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


def test_split_certificate_survives_optimized_mode(run_optimized):
    # F = 1 + E_01 is not a module map: its weight-diagonal blocks are those
    # of the identity, so the diagonal equations solve with r = 1, and the
    # certificate F @ r == 1 fails on the off-diagonal entry
    code = (
        "from tlschur.hecke import classical_char2\n"
        "from tlschur.linalg import Matrix\n"
        "from tlschur.oracle import CertificationError, _try_split, schur_algebra, tensor_module\n"
        "q = tensor_module(schur_algebra(classical_char2(2)))\n"
        "f = q.algebra.field\n"
        "F = Matrix.from_rows(f, [[int(i == j or (i == 0 and j == 1)) for j in range(q.dim)] for i in range(q.dim)])\n"
        "print(_try_split([Matrix.identity(f, q.dim)], q, q))\n"
        "try:\n"
        "    _try_split([F], q, q)\n"
        "except CertificationError as exc:\n"
        "    print(__debug__, 'raised', str(exc).replace(' ', '_'))\n"
    )
    out = run_optimized(code)
    assert out[:4] == [
        "True",
        "False",
        "raised",
        "the_solved_retraction_is_not_a_left_inverse_of_the_approximation",
    ], out[-1]
