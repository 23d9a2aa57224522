import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

from tlschur.fields import GF
from tlschur.hecke import HeckeElement, HeckeParams, classical_char2, kernel_generator, quantum_ell2
import tlschur
from tlschur import linalg, tensor_action
from tlschur.linalg import Matrix, RowSpace, flatten, unflatten
from tlschur.oracle import schur_algebra, tensor_module
from tlschur.permutations import symmetric_group
from tlschur.tensor_action import (
    CertificationError,
    algebra_closure_dim,
    basis_word,
    commutant_basis,
    double_centralizer_report,
    element_action,
    hecke_action,
    hecke_generator_matrices,
    permutation_action,
    intertwiner_rows,
    intertwiner_system,
    tl_action,
    weight_classes,
    word_index,
)
from tlschur.tl import catalan

CONFIGS = [classical_char2, quantum_ell2]
IDS = ["gf2-u1", "gf5-u2"]


def gf3_u1(d):
    # q = 1 over GF(3): the classical Schur algebra in characteristic 3
    return HeckeParams(d, GF(3), 1)


def gf7_u3(d):
    # q = u^(-2) = 4 has quantum characteristic 3: away from the blessed regime
    return HeckeParams(d, GF(7), 3)


GRADED = CONFIGS + [gf7_u3]
GRADED_IDS = IDS + ["gf7-u3"]


def test_basis_word_round_trip():
    d = 5
    for n in range(1 << d):
        w = basis_word(d, n)
        assert len(w) == d and all(x in (1, 2) for x in w)
        assert word_index(w) == n
    assert basis_word(3, 0) == (1, 1, 1)
    assert basis_word(3, 5) == (2, 1, 2)


def _word_by_word_hecke_action(params: HeckeParams, s: int) -> Matrix:
    """T_s built one basis word at a time from the letter pair at (s, s+1): the reference for hecke_action."""
    d, f, u = params.d, params.field, params.u
    shift = f.sub(u, params.u_inv)
    n, hi, lo = 1 << d, d - s, d - s - 1
    rows = []
    for idx in range(n):
        row = [f.zero] * n
        a, b = (idx >> hi) & 1, (idx >> lo) & 1
        if a == b:
            row[idx] = u
        else:
            swapped = idx ^ (1 << hi) ^ (1 << lo)
            if a > b:
                row[idx] = shift
            row[swapped] = f.add(row[swapped], f.one)
        rows.append(row)
    return Matrix.from_rows(f, rows)


@pytest.mark.parametrize("p,u", [(2, 1), (5, 2), (7, 3), (3, 1), (257, 16), (1009, 469)])
def test_hecke_action_matches_word_by_word_build(p, u):
    for d in range(1, 8):
        params = HeckeParams(d, GF(p), u)
        for s in range(1, d):
            assert hecke_action(params, s) == _word_by_word_hecke_action(params, s), (d, s)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_action_satisfies_presentation(make, d):
    p = make(d)
    f = p.field
    n = 1 << d
    I = Matrix.identity(f, n)
    Ts = [hecke_action(p, s) for s in range(1, d)]
    for T in Ts:
        assert ((T - I.scale(p.u)) @ (T + I.scale(p.u_inv))).is_zero()
    for a in range(len(Ts) - 1):
        assert Ts[a] @ Ts[a + 1] @ Ts[a] == Ts[a + 1] @ Ts[a] @ Ts[a + 1]
    for a in range(len(Ts)):
        for b in range(a + 2, len(Ts)):
            assert Ts[a] @ Ts[b] == Ts[b] @ Ts[a]
    for s in range(1, d):
        U = tl_action(p, s)
        assert U == Ts[s - 1] - I.scale(p.u)
        assert U @ U == U.scale(p.delta)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_element_action_is_multiplicative(make):
    d = 3
    p = make(d)
    f = p.field
    rng = random.Random(29)
    G = symmetric_group(d)

    def rand_el():
        return HeckeElement(p, {rng.choice(G): f.random(rng) for _ in range(2)})

    for _ in range(8):
        a, b = rand_el(), rand_el()
        assert element_action(a * b) == element_action(a) @ element_action(b)
        assert element_action(a + b) == element_action(a) + element_action(b)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_permutation_action_independent_of_word(make):
    # T_w along a reduced word equals multiplying element generators
    d = 4
    p = make(d)
    rng = random.Random(31)
    G = symmetric_group(d)
    for _ in range(6):
        w = rng.choice(G)
        got = permutation_action(p, w)
        want = element_action(HeckeElement.basis(p, w))
        assert got == want


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [3, 4, 5])
def test_kernel_generators_act_as_zero(make, d):
    p = make(d)
    for i in range(1, d - 1):
        assert element_action(kernel_generator(p, i)).is_zero()


def test_kernel_generator_action_nonzero_generically():
    # away from quantum characteristic 2 the convention check has teeth: over
    # GF(7) with u = 3 (q = 4, quantum characteristic 3, u - u^(-1) != 0) a
    # wrong ascent, descent or equal-letter rule leaves a nonzero action
    p = HeckeParams(3, GF(7), 3)
    assert element_action(kernel_generator(p, 1)).is_zero()


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_commutant_dimension_and_closure(make, d, dense_intertwiners):
    p = make(d)
    gens = hecke_generator_matrices(p)
    comm = commutant_basis(gens)
    assert len(comm) == comb(d + 3, 3)
    # the weight blocks reproduce the full 4^d-unknown solve bit for bit
    assert comm == dense_intertwiners(gens, gens)
    for x in comm:
        for g in gens:
            assert g @ x == x @ g


def _all_pairs_commutant(gens):
    """The commutant solved on all (d + 1)^2 weight pairs, one intertwiner system each."""
    f, n = gens[0].field, gens[0].nrows
    classes = weight_classes(n)
    restricted = [[g.select_rows(c).select_columns(c) for g in gens] for c in classes]
    rows = []
    for ia, ga in zip(classes, restricted):
        for ib, gb in zip(classes, restricted):
            kernel = intertwiner_rows(ga, gb, [range(len(ia))], [range(len(ib))]).dense()
            embedded = np.zeros((kernel.shape[0], n * n), dtype=np.int64)
            embedded[:, (np.array(ia)[:, None] * n + np.array(ib)[None, :]).ravel()] = kernel
            rows.append(embedded)
    return unflatten(linalg.reduced_basis(Matrix.from_dense(f, np.concatenate(rows))), n, n)


@pytest.mark.parametrize(
    "make, d",
    [(make, 6) for make in CONFIGS] + [(make, d) for make in (gf3_u1, gf7_u3) for d in (2, 3, 4, 5)],
    ids=[f"{i}-d6" for i in IDS] + [f"{i}-d{d}" for i in ("gf3-u1", "gf7-u3") for d in (2, 3, 4, 5)],
)
def test_orbit_solve_matches_all_pairs(make, d):
    # each weight space is the orbit of its first word 1^(d-a) 2^a, and the solve through that
    # word reproduces the intertwiner systems of all (d + 1)^2 weight pairs bit for bit
    gens = hecke_generator_matrices(make(d))
    comm = commutant_basis(gens)
    assert len(comm) == comb(d + 3, 3)
    assert comm == _all_pairs_commutant(gens)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_commutant_solves_one_system_per_weight_pair(make, d, monkeypatch):
    # one stabiliser system per weight pair (a, b) on the C(d, b) entries of the first word's row,
    # none where V_a has no stabiliser of its first word (a = 1 at d = 2); no intertwiner system
    monkeypatch.setattr(tensor_action, "intertwiner_rows", None)
    solved = []
    kernel = Matrix.kernel_basis_matrix
    monkeypatch.setattr(Matrix, "kernel_basis_matrix", lambda self: solved.append(self.ncols) or kernel(self))
    messages = []
    comm = commutant_basis(hecke_generator_matrices(make(d)), progress=messages.append)
    assert len(comm) == comb(d + 3, 3)
    assert sorted(solved) == sorted(comb(d, b) for a in range(d + 1) for b in range(d + 1) if d > 2 or a != 1)
    widest = comb(d, d // 2)
    assert messages == [f"solving {(d + 1) ** 2} weight pairs of at most {widest} unknowns"]


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_double_commutant_matches_dense(make, d, dense_intertwiners):
    comm = commutant_basis(hecke_generator_matrices(make(d)))
    n = 1 << d
    classes = weight_classes(n)
    graded = unflatten(intertwiner_rows(comm, comm, classes, classes), n, n)
    assert graded == dense_intertwiners(comm, comm)
    assert len(graded) == catalan(d)


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
def test_streamed_kernel_matches_one_elimination(make, monkeypatch):
    # the d=5 double-commutant and End(Q) systems exceed a 64 KiB block, so they are really
    # split (the End(Q) system fits the default block when the algebra has two generators)
    monkeypatch.setattr(tensor_action, "_BLOCK_BYTES", 64 << 10)
    params = make(5)
    f, n = params.field, 32
    comm = commutant_basis(hecke_generator_matrices(params))
    classes = weight_classes(n)
    q = tensor_module(schur_algebra(params))
    acts, parts = q.generator_actions(), q.weight_parts()
    dims = []
    insert = RowSpace.insert
    monkeypatch.setattr(RowSpace, "insert", lambda self, rows: (insert(self, rows), dims.append(self.dim))[0])
    for left, right, rows, cols in ((comm, comm, classes, classes), (acts, acts, parts, parts)):
        system, coords = intertwiner_system(left, right, rows, cols)
        step = (64 << 10) // ((1 if f.p == 2 else 8) * coords.size)
        rank = Matrix.from_dense(f, system).rank()
        dims.clear()
        streamed = intertwiner_rows(left, right, rows, cols)
        # several blocks, the span saturated before the last one, and no insert once it is
        assert system.shape[0] > step
        assert Matrix.from_dense(f, system[: (system.shape[0] - 1) // step * step]).rank() == rank
        assert dims[-1] == rank and dims.count(rank) == 1
        assert streamed.select_columns(coords.tolist()) == Matrix.from_dense(f, system).kernel_basis_matrix()
        outside = np.setdiff1d(np.arange(n * n), coords)
        assert streamed.select_columns(outside.tolist()).is_zero()


@pytest.mark.parametrize("p", [2, 5, 127, 131, 1009])
def test_intertwiner_system_matches_int64_build(p, wide_intertwiner_system):
    # entries 0 and p - 1 reach both ends of [-(p - 1), p - 1]; int8 gives way to int16 at p = 131
    f = GF(p)
    rng = random.Random(p)
    pick = [0, 0, 1, p - 1, p - 1]

    def rand(n):
        return Matrix.from_rows(f, [[rng.choice(pick) for _ in range(n)] for _ in range(n)])

    left, right = [rand(8), rand(8)], [rand(4), rand(4)]
    for rows, cols in (([range(8)], [range(4)]), ([[0, 3], [1, 2, 4, 5], [6, 7]], [[0], [1, 2], [3]])):
        system, coords = intertwiner_system(left, right, rows, cols)
        wide = wide_intertwiner_system(left, right, [list(r) for r in rows], [list(c) for c in cols])
        assert Matrix.from_dense(f, system) == wide
        want_coords = sorted(i * 4 + j for r, c in zip(rows, cols) for i in r for j in c)
        assert coords.tolist() == want_coords
        assert system.dtype == (np.int8 if p < 128 else np.int16)
        assert system.min() == -(p - 1) and system.max() == p - 1


def _rand(f, n, rng, pick):
    return Matrix.from_rows(f, [[rng.choice(pick) for _ in range(n)] for _ in range(n)])


def _check_against_wide(left, right, rows, cols, wide_intertwiner_system):
    f, n = left[0].field, right[0].nrows
    system, coords = intertwiner_system(left, right, rows, cols)
    wide = wide_intertwiner_system(left, right, [list(r) for r in rows], [list(c) for c in cols])
    assert coords.dtype == np.int64
    assert coords.tolist() == sorted(i * n + j for r, c in zip(rows, cols) for i in r for j in c)
    if wide is None:
        assert system is None
    else:
        assert system.dtype == (np.int8 if f.p < 128 else np.int16)
        assert Matrix.from_dense(f, system) == wide and system.shape == (wide.nrows, wide.ncols)
        assert system.min() >= -(f.p - 1) and system.max() <= f.p - 1
    return system, coords


@pytest.mark.parametrize("p", [2, 5])
def test_intertwiner_system_empty_parts(p, wide_intertwiner_system):
    # an empty row part and an empty column part: their blocks have no unknowns, and blocks
    # with no rows give no equation even where the other side is nonzero
    f, rng = GF(p), random.Random(p + 1)
    left, right = [_rand(f, 6, rng, range(p)) for _ in range(2)], [_rand(f, 5, rng, range(p)) for _ in range(2)]
    for rows, cols in (
        ([[0, 3], [], [1, 2, 4, 5]], [[2], [0, 1], [3, 4]]),
        ([[5, 1], [0, 2, 3, 4], []], [[], [4, 0], [1, 2, 3]]),
        ([[], list(range(6))], [list(range(5)), []]),
    ):
        _check_against_wide(left, right, rows, cols, wide_intertwiner_system)


@pytest.mark.parametrize("p", [2, 5, 127, 131])
def test_intertwiner_system_vanishing_pairs(p, wide_intertwiner_system):
    # one pair vanishes on every block and gives no rows; the others vanish on some blocks,
    # which give no rows either; entries 0 and p - 1 reach both ends of [-(p - 1), p - 1]
    f, rng = GF(p), random.Random(p)
    rows, cols = [[0, 4], [1, 5, 6], [2, 3]], [[3], [0, 2], [1, 4]]

    def sparse(n, parts, live):  # nonzero only on the blocks (k, l) in live
        x = np.zeros((n, n), dtype=np.int64)
        for k, l in live:
            x[np.ix_(parts[k], parts[l])] = [[rng.choice([0, 1, p - 1, p - 1]) for _ in parts[l]] for _ in parts[k]]
        return Matrix.from_dense(f, x)

    left = [sparse(7, rows, [(0, 1), (2, 2)]), Matrix.zeros(f, 7, 7), sparse(7, rows, [(1, 0)])]
    right = [sparse(5, cols, [(0, 1)]), Matrix.zeros(f, 5, 5), sparse(5, cols, [(2, 2), (1, 2)])]
    system, _ = _check_against_wide(left, right, rows, cols, wide_intertwiner_system)
    # the live blocks (0, 1) and (2, 2), then (1, 0), (1, 2) and (2, 2): rows |rows_k| * |cols_l|
    assert system.shape == (2 * 2 + 2 * 2 + 3 * 1 + 3 * 2 + 2 * 2, 2 * 1 + 3 * 2 + 2 * 2)
    assert system.min() == -(p - 1) and system.max() == p - 1
    _check_against_wide(left[1:2], right[1:2], rows, cols, wide_intertwiner_system)
    assert intertwiner_system(left[1:2], right[1:2], [range(7)], [range(5)])[0] is None


@pytest.mark.parametrize("p", [2, 127, 131])
def test_intertwiner_system_sides_of_different_sizes(p, wide_intertwiner_system):
    f, rng = GF(p), random.Random(3 * p)
    pick = [0, 0, 1, p - 1]
    for m, n, rows, cols in (
        (3, 7, [[2, 0], [1]], [[6, 1, 3], [0, 2, 4, 5]]),
        (9, 2, [[8, 0, 4], [1, 2, 3, 5, 6, 7]], [[1], [0]]),
        (1, 4, [range(1)], [range(4)]),
    ):
        left, right = [_rand(f, m, rng, pick) for _ in range(3)], [_rand(f, n, rng, pick) for _ in range(3)]
        _check_against_wide(left, right, rows, cols, wide_intertwiner_system)
        _check_against_wide(left, right, [range(m)], [range(n)], wide_intertwiner_system)


def test_intertwiner_system_rejects_bad_input():
    f = GF(5)
    a, b = Matrix.identity(f, 3), Matrix.identity(f, 2)
    with pytest.raises(ValueError, match="as many right"):
        intertwiner_system([a, a], [b], [range(3)], [range(2)])
    with pytest.raises(ValueError, match="at least one"):
        intertwiner_system([], [], [], [])
    with pytest.raises(ValueError, match="as many row parts as column parts"):
        intertwiner_system([a], [b], [[0], [1, 2]], [[0, 1]])
    for rows, cols in (
        ([[0, 1], [1, 2]], [[0], [1]]),  # a repeated row
        ([[0], [1]], [[0], [1]]),  # a missing row
        ([[0, 1], [2, 3]], [[0], [1]]),  # a row out of range
        ([[0, 1], [2]], [[0], [0, 1]]),  # a repeated column
        ([[0, 1], [2]], [[0], [-1]]),  # a negative column
        ([[0, 1, 2]], []),  # no column part
    ):
        with pytest.raises(ValueError, match="part"):
            intertwiner_system([a], [b], rows, cols)


def test_intertwiner_system_checks_survive_optimized_mode(run_optimized):
    code = (
        "from tlschur.fields import GF\n"
        "from tlschur.linalg import Matrix\n"
        "from tlschur.tensor_action import intertwiner_system\n"
        "a, b = Matrix.identity(GF(5), 3), Matrix.identity(GF(5), 2)\n"
        "bad = (([a, a], [b], [range(3)], [range(2)]), ([], [], [], []),\n"
        "       ([a], [b], [[0], [1, 2]], [[0, 1]]), ([a], [b], [[0, 1], [1, 2]], [[0], [1]]))\n"
        "for args in bad:\n"
        "    try:\n"
        "        print(intertwiner_system(*args))\n"
        "    except ValueError:\n"
        "        print(__debug__, 'raised')\n"
    )
    out = run_optimized(code)
    assert out[:8] == ["False", "raised"] * 4, out[-1]


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_double_commutant_system_shape(make):
    # one equation block per commutant basis matrix (C(8, 3) = 56), on the weight block (a, b)
    # it lives on: |V_a| |V_b| rows each, 2324 in all, on the C(10, 5) = 252 unknowns; a
    # block where both sides vanish would add rows
    comm = commutant_basis(hecke_generator_matrices(make(5)))
    classes = weight_classes(32)
    system, coords = intertwiner_system(comm, comm, classes, classes)
    assert system.shape == (2324, 252) and coords.size == 252


def test_weight_classes():
    assert weight_classes(8) == [[0], [1, 2, 4], [3, 5, 6], [7]]
    with pytest.raises(ValueError):
        weight_classes(6)


def _weight_mixing_swap():
    # swaps the words 11 (weight 0) and 12 (weight 1) of V^(tensor 2)
    return Matrix.from_rows(GF(5), [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_commutant_rejects_weight_mixing_generator():
    with pytest.raises(CertificationError, match="weight"):
        commutant_basis([_weight_mixing_swap()])
    with pytest.raises(ValueError, match="generator"):
        commutant_basis([])


def test_commutant_rejects_generators_that_do_not_reach_every_word():
    # T_1 alone on V^(tensor 3) fixes the first word 112 of weight 1, so no edge leaves it
    p = quantum_ell2(3)
    t1, t2 = hecke_action(p, 1), hecke_action(p, 2)
    with pytest.raises(CertificationError, match="reach every word of weight 1"):
        commutant_basis([t1])
    # the identity fixes every word: it has no edge, and alone it reaches nothing
    with pytest.raises(CertificationError, match="reach every word"):
        commutant_basis([Matrix.identity(GF(5), 4)])
    # a repeated or reordered generator changes nothing
    assert commutant_basis([t2, t1, t2]) == commutant_basis(hecke_generator_matrices(p))


def _corrupted_t1():
    # T_1 on V^(tensor 3) over GF(5) with 1 added at (211, 112): weight preserving, and its row 211
    # is neither the first word's nor an edge, so only the commutation check sees it
    p = quantum_ell2(3)
    t1 = hecke_action(p, 1).dense().copy()
    t1[word_index((2, 1, 1)), word_index((1, 1, 2))] += 1
    return [Matrix.from_dense(p.field, t1), hecke_action(p, 2)]


def test_commutant_rejects_a_map_that_does_not_commute():
    with pytest.raises(CertificationError, match="does not commute"):
        commutant_basis(_corrupted_t1())


def test_weight_check_survives_optimized_mode():
    code = (
        "from tlschur.fields import GF\n"
        "from tlschur.linalg import Matrix\n"
        "from tlschur.tensor_action import CertificationError, commutant_basis, hecke_action, word_index\n"
        "from tlschur.hecke import quantum_ell2\n"
        "mixing = Matrix.from_rows(GF(5), [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])\n"
        "t1 = hecke_action(quantum_ell2(3), 1)\n"
        "bad = t1.dense().copy()\n"
        "bad[word_index((2, 1, 1)), word_index((1, 1, 2))] += 1\n"
        "corrupted = [Matrix.from_dense(GF(5), bad), hecke_action(quantum_ell2(3), 2)]\n"
        "for gens in ([mixing], [t1], corrupted):\n"
        "    try:\n"
        "        commutant_basis(gens)\n"
        "    except CertificationError as e:\n"
        "        print(__debug__, 'raised:', '-'.join(str(e).split()[-3:]))\n"
    )
    src = str(Path(tlschur.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    # the weight check, the tree check and the commutation check
    assert out.stdout.split() == ["False", "raised:", "not-preserve-weight"] + [
        "False",
        "raised:",
        "the-first-word",
    ] + ["False", "raised:", "with-the-generators"], out.stderr


def test_report_rejects_projection_outside_commutant(monkeypatch):
    # span{E_00} is closed, but holds neither the identity nor a weight projection
    p = classical_char2(3)
    e00 = Matrix.from_dense(p.field, np.eye(8, dtype=np.int64) * (np.arange(8) == 0))
    monkeypatch.setattr(tensor_action, "commutant_basis", lambda gens, progress=None: [e00])
    with pytest.raises(CertificationError, match="weight projection"):
        double_centralizer_report(p)
    # the identity is closed and holds every weight projection, but it is nonzero on four weight blocks
    monkeypatch.setattr(tensor_action, "commutant_basis", lambda gens, progress=None: [Matrix.identity(p.field, 8)])
    with pytest.raises(CertificationError, match="exactly one weight block"):
        double_centralizer_report(p)


def test_report_flags_a_commutant_not_closed(monkeypatch):
    # on V^(tensor 2) the words 12 and 21 have weight 1: span{E_00, E_33, E_11 + E_22, E_12, E_21}
    # holds the identity and the weight projections, but E_12 E_21 = E_11 leaves it
    p = classical_char2(2)
    units = [[(0, 0)], [(3, 3)], [(1, 1), (2, 2)], [(1, 2)], [(2, 1)]]
    fake = []
    for ones in units:
        m = np.zeros((4, 4), dtype=np.int64)
        m[tuple(zip(*ones))] = 1
        fake.append(Matrix.from_dense(p.field, m))
    monkeypatch.setattr(tensor_action, "commutant_basis", lambda gens, progress=None: fake)
    rep = double_centralizer_report(p)
    assert rep["commutant_dim"] == 5 and not rep["commutant_closed_under_product"]


def _check_closed_span(gens, span):
    """The span holds 1 and the generators and is stable under right multiplication by each."""
    f, n = gens[0].field, gens[0].nrows
    diag = tensor_action._weight_diagonal(n)
    assert span.contains(flatten([Matrix.identity(f, n), *gens]).select_columns(diag))
    # the span as matrices: each row scattered back onto the weight-diagonal entries
    rows = np.zeros((span.dim, n * n), dtype=np.int64)
    rows[:, diag] = span.basis.dense()
    elems = unflatten(Matrix.from_dense(f, rows), n, n)
    products = flatten(x @ g for x in elems for g in gens)
    assert products.select_columns(np.setdiff1d(np.arange(n * n), diag)).is_zero()
    assert span.contains(products.select_columns(diag))


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_tl_image_dimension(make, d):
    gens = [tl_action(make(d), s) for s in range(1, d)]
    dim, span = algebra_closure_dim(gens)
    assert dim == span.dim == catalan(d)
    _check_closed_span(gens, span)


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
def test_closure_of_one_nonsymmetric_generator(make):
    # the TL generators are symmetric matrices, T_1 T_2 is not: the algebra
    # it generates is spanned by its powers g^0, ..., g^8 (dim V^(tensor 3) = 8)
    p = make(3)
    g = hecke_action(p, 1) @ hecke_action(p, 2)
    assert g != g.transpose()
    dim, span = algebra_closure_dim([g])
    powers = [Matrix.identity(p.field, 8)]
    for _ in range(8):
        powers.append(powers[-1] @ g)
    assert dim == span.dim == flatten(powers).rank()
    _check_closed_span([g], span)


def test_closure_needs_a_generator():
    with pytest.raises(ValueError, match="need at least one generator"):
        algebra_closure_dim([])
    with pytest.raises(ValueError, match="need at least one generator"):
        double_centralizer_report(HeckeParams(1, GF(2), 1))


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
def test_double_centralizer_report_small(make):
    rep = double_centralizer_report(make(3))
    assert rep["tl_image_dim"] == catalan(3) == 5
    assert rep["commutant_dim"] == comb(6, 3) == 20
    assert rep["tl_image_equals_double_commutant"]
    assert rep["commutant_closed_under_product"]
