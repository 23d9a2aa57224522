import random

import pytest

from tlschur.fields import GF2, GF5, QQ
from tlschur.hecke import (
    BLESSED_CONFIGS,
    HeckeElement,
    HeckeParams,
    classical_char2,
    kernel_generator,
    phi,
    quantum_ell2,
)
from tlschur.permutations import Permutation, symmetric_group
from tlschur.tl import TLElement

CONFIGS = [classical_char2, quantum_ell2, lambda d: HeckeParams(d, QQ, 1)]
IDS = ["gf2-u1", "gf5-u2", "qq-u1"]


def test_blessed_configs_hit_quantum_characteristic_2():
    for name, make in BLESSED_CONFIGS.items():
        p = make(4)
        f = p.field
        assert p.q == f.coerce(-1), name  # 1 + q = 0
        assert p.delta == f.zero, name  # delta = -u - u^(-1) vanishes
    assert classical_char2(3).field == GF2
    assert quantum_ell2(3).field == GF5 and quantum_ell2(3).u == 2


def test_params_validation():
    with pytest.raises(ValueError):
        HeckeParams(0, GF5, 1)
    with pytest.raises(ValueError):
        HeckeParams(3, GF5, 0)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_quadratic_relation(make, d):
    p = make(d)
    one = HeckeElement.one(p)
    for i in range(1, d):
        t = HeckeElement.generator(p, i)
        assert ((t - one.scale(p.u)) * (t + one.scale(p.u_inv))).is_zero()


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [3, 4, 5])
def test_braid_and_commutation(make, d):
    p = make(d)
    gens = [HeckeElement.generator(p, i) for i in range(1, d)]
    for a in range(len(gens) - 1):
        assert gens[a] * gens[a + 1] * gens[a] == gens[a + 1] * gens[a] * gens[a + 1]
    for a in range(len(gens)):
        for b in range(a + 2, len(gens)):
            assert gens[a] * gens[b] == gens[b] * gens[a]


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_basis_multiplication_length_additive(make):
    # T_v T_w = T_{vw} whenever lengths add
    d = 4
    p = make(d)
    rng = random.Random(13)
    G = symmetric_group(d)
    found = 0
    for _ in range(60):
        v, w = rng.choice(G), rng.choice(G)
        if v.length() + w.length() != (v * w).length():
            continue
        found += 1
        prod = HeckeElement.basis(p, v) * HeckeElement.basis(p, w)
        assert prod == HeckeElement.basis(p, v * w)
    assert found > 5


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_phi_on_generators_and_unit(make):
    d = 3
    p = make(d)
    tlp = p.tl_params()
    assert phi(HeckeElement.one(p)) == TLElement.one(tlp)
    for i in range(1, d):
        want = TLElement.generator(tlp, i) + TLElement.one(tlp).scale(p.u)
        assert phi(HeckeElement.generator(p, i)) == want


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [3, 4])
def test_phi_multiplicative_random(make, d):
    p = make(d)
    f = p.field
    rng = random.Random(17)
    G = symmetric_group(d)

    def rand_el():
        return HeckeElement(p, {rng.choice(G): f.random(rng) for _ in range(2)})

    for _ in range(10):
        a, b = rand_el(), rand_el()
        assert phi(a * b) == phi(a) * phi(b)


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
@pytest.mark.parametrize("d", [3, 4, 5])
def test_kernel_generators_die_under_phi(make, d):
    p = make(d)
    for i in range(1, d - 1):
        x = kernel_generator(p, i)
        assert not x.is_zero()
        assert phi(x).is_zero()


def test_kernel_generator_range():
    p = classical_char2(4)
    with pytest.raises(ValueError):
        kernel_generator(p, 3)
    with pytest.raises(ValueError):
        kernel_generator(classical_char2(2), 1)


def test_element_algebra_laws():
    p = quantum_ell2(3)
    f = p.field
    rng = random.Random(19)
    G = symmetric_group(3)

    def rand_el():
        return HeckeElement(p, {rng.choice(G): f.random(rng) for _ in range(2)})

    one = HeckeElement.one(p)
    for _ in range(8):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert one * a == a and a * one == a
        assert (a - a).is_zero()


def test_multiply_by_generator_matches_basis_product():
    p = quantum_ell2(4)
    rng = random.Random(23)
    G = symmetric_group(4)
    for _ in range(20):
        w = rng.choice(G)
        i = rng.randrange(1, 4)
        got = HeckeElement.basis(p, w).multiply_by_generator(i)
        want = HeckeElement.basis(p, w) * HeckeElement.generator(p, i)
        assert got == want


def test_mixed_parameters_raise_in_optimized_mode(run_optimized):
    # without the checks a sum or product over two parameter sets comes back silently
    code = (
        "from tlschur.hecke import HeckeElement, classical_char2, quantum_ell2\n"
        "from tlschur.tl import TLElement\n"
        "a, b = HeckeElement.one(classical_char2(3)), HeckeElement.one(quantum_ell2(3))\n"
        "x, y = TLElement.one(a.params.tl_params()), TLElement.one(b.params.tl_params())\n"
        "for u, v in ((a, b), (x, y)):\n"
        "    for op in ('__add__', '__mul__'):\n"
        "        try:\n"
        "            getattr(u, op)(v)\n"
        "        except ValueError:\n"
        "            print(__debug__, 'raised')\n"
    )
    out = run_optimized(code)
    assert out[:8] == ["False", "raised"] * 4, out[-1]
