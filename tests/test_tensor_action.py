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
from tlschur import tensor_action
from tlschur.linalg import Matrix, flatten, unflatten
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
    tl_action,
    weight_classes,
    word_index,
)
from tlschur.tl import catalan

CONFIGS = [classical_char2, quantum_ell2]
IDS = ["gf2-u1", "gf5-u2"]


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


@pytest.mark.parametrize("make", GRADED, ids=GRADED_IDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_double_commutant_matches_dense(make, d, dense_intertwiners):
    comm = commutant_basis(hecke_generator_matrices(make(d)))
    n = 1 << d
    classes = weight_classes(n)
    graded = unflatten(intertwiner_rows(comm, comm, classes, classes), n, n)
    assert graded == dense_intertwiners(comm, comm)
    assert len(graded) == catalan(d)


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


def test_weight_check_survives_optimized_mode():
    code = (
        "from tlschur.fields import GF\n"
        "from tlschur.linalg import Matrix\n"
        "from tlschur.tensor_action import CertificationError, commutant_basis\n"
        "m = Matrix.from_rows(GF(5), [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])\n"
        "try:\n"
        "    commutant_basis([m])\n"
        "except CertificationError:\n"
        "    print(__debug__, 'raised')\n"
    )
    src = str(Path(tlschur.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["False", "raised"], out.stderr


def test_report_rejects_projection_outside_commutant(monkeypatch):
    p = classical_char2(3)
    monkeypatch.setattr(tensor_action, "commutant_basis", lambda gens, progress=None: [Matrix.identity(p.field, 8)])
    with pytest.raises(CertificationError, match="weight projection"):
        double_centralizer_report(p)


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
