import random
from math import comb

import pytest

from tlschur.fields import GF
from tlschur.hecke import HeckeElement, HeckeParams, classical_char2, kernel_generator, quantum_ell2
from tlschur.linalg import Matrix
from tlschur.permutations import symmetric_group
from tlschur.tensor_action import (
    algebra_closure_dim,
    basis_word,
    commutant_basis,
    double_centralizer_report,
    element_action,
    hecke_action,
    hecke_generator_matrices,
    permutation_action,
    tl_action,
    word_index,
)
from tlschur.tl import catalan

CONFIGS = [classical_char2, quantum_ell2]
IDS = ["gf2-u1", "gf5-u2"]


def test_basis_word_round_trip():
    d = 5
    for n in range(1 << d):
        w = basis_word(d, n)
        assert len(w) == d and all(x in (1, 2) for x in w)
        assert word_index(w) == n
    assert basis_word(3, 0) == (1, 1, 1)
    assert basis_word(3, 5) == (2, 1, 2)


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


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [2, 3])
def test_commutant_dimension_and_closure(make, d):
    p = make(d)
    comm = commutant_basis(hecke_generator_matrices(p))
    assert len(comm) == comb(d + 3, 3)
    gens = hecke_generator_matrices(p)
    for x in comm:
        for g in gens:
            assert g @ x == x @ g


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [2, 3])
def test_tl_image_dimension(make, d):
    p = make(d)
    dim, basis = algebra_closure_dim([tl_action(p, s) for s in range(1, d)] or [Matrix.identity(p.field, 1 << d)])
    assert dim == catalan(d)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_double_centralizer_report_small(make):
    rep = double_centralizer_report(make(3))
    assert rep["tl_image_dim"] == catalan(3) == 5
    assert rep["commutant_dim"] == comb(6, 3) == 20
    assert rep["tl_image_equals_double_commutant"]
    assert rep["commutant_closed_under_product"]
