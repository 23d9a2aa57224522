import inspect

import numpy as np
import pytest

from tlschur import _kernels as K
from tlschur.fields import GF
from tlschur.hecke import HeckeParams
from tlschur.linalg import Matrix
from tlschur.tensor_action import hecke_generator_matrices

PRIMES = (2, 3, 5)
BLOCKED_PRIMES = (3, 5, 7, 101)


def ref_rref_mod(a, p):
    """Slow reference elimination in plain Python."""
    a = [[int(x) % p for x in row] for row in a]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    rank, pivots = 0, []
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if a[r][col] % p), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        s = pow(a[rank][col], p - 2, p)
        a[rank] = [(x * s) % p for x in a[rank]]
        for r in range(nr):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    return a, rank, pivots


def ref_det_mod(a, p):
    a = [row[:] for row in a]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = (det * a[col][col]) % p
        s = pow(a[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = (a[r][col] * s) % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return det % p


def poly_eval_matrix(coeffs, a, p):
    """coeffs[j] t^j evaluated at the matrix a, mod p."""
    n = a.shape[0]
    acc = np.zeros((n, n), dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for c in coeffs:
        acc = (acc + int(c) * power) % p
        power = (power @ a) % p
    return acc


@pytest.mark.parametrize("ncols", [1, 3, 63, 64, 65, 130])
def test_pack_unpack_round_trip(ncols):
    rng = np.random.default_rng(ncols)
    dense = rng.integers(0, 2, size=(7, ncols)).astype(np.uint8)
    packed = K.pack_rows(dense)
    assert packed.shape == (7, (ncols + 63) // 64)
    assert np.array_equal(K.unpack_rows(packed, ncols), dense)


@pytest.mark.parametrize(
    "shape", [(4, 5, 6), (16, 70, 3), (65, 65, 65), (1, 1, 1), (9, 100, 7), (3, 130, 65), (136, 192, 150)]
)
def test_gf2_matmul_matches_numpy(shape):
    m, k, n = shape
    rng = np.random.default_rng(sum(shape))
    a = rng.integers(0, 2, size=(m, k)).astype(np.uint8)
    b = rng.integers(0, 2, size=(k, n)).astype(np.uint8)
    start = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
    out = K.pack_rows(start)
    K.gf2_matmul(K.pack_rows(a), k, K.pack_rows(b), out)
    want = (start + a.astype(np.int64) @ b.astype(np.int64)) % 2
    assert np.array_equal(K.unpack_rows(out, n), want.astype(np.uint8))
    # the padding bits past column n stay zero
    assert np.array_equal(out, K.pack_rows(K.unpack_rows(out, n)))


def test_gf2_matmul_rejects_float32_overflow():
    # rejected before any work, so the operands can stay tiny
    a = np.zeros((1, 1), dtype=np.uint64)
    with pytest.raises(ValueError, match="float32"):
        K.gf2_matmul(a, 1 << 24, a, np.zeros((1, 1), dtype=np.uint64))


def ref_matmul_mod(a, b, p):
    """a @ b mod p in Python integers, batched like np.matmul."""
    return np.matmul(a.astype(object), b.astype(object)) % p


@pytest.mark.parametrize("p", (2, 5, 65521, 2147483647))
@pytest.mark.parametrize("seed", range(4))
def test_gfp_matmul_matches_python_ints(p, seed):
    rng = np.random.default_rng(seed)
    batch = tuple(int(x) for x in rng.integers(1, 4, size=seed % 3))
    # b broadcasts over the batch axes where it has length 1
    b_batch = tuple(x if rng.integers(2) else 1 for x in batch)
    m, n = (int(x) for x in rng.integers(0, 7, size=2))
    k = int(rng.integers(0, 9 if p < 2**16 else 3))  # 3 (2^31 - 2)^2 >= 2^63
    a = rng.integers(0, p, size=(*batch, m, k), dtype=np.int64)
    b = rng.integers(0, p, size=(*b_batch, k, n), dtype=np.int64)
    got = K.gfp_matmul(a, b, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref_matmul_mod(a, b, p))


def test_gfp_matmul_exact_on_both_sides_of_the_float64_switch():
    # 3 (p - 1)^2 < 2^53 <= 4 (p - 1)^2: length 3 runs on float64, length 4 on int64
    p = 50000017
    assert 3 * (p - 1) ** 2 < 2**53 <= 4 * (p - 1) ** 2
    for k in (3, 4):
        # an odd sum: above 2^53 a float64 holds only even integers
        a = np.array([[p - 1] * (k - 1) + [p - 2]], dtype=np.int64)
        got = K.gfp_matmul(a, a.T, p)
        assert np.array_equal(got, ref_matmul_mod(a, a.T, p))
    # the float64 product of the length-4 case is off, so the int64 path is needed there
    exact = int(np.matmul(a.astype(object), a.T.astype(object))[0, 0])
    assert exact % 2 == 1 and exact > 2**53
    assert int((a.astype(np.float64) @ a.T.astype(np.float64))[0, 0]) != exact


@pytest.mark.parametrize("p", (65521, 50000017, 2147483647))
def test_gfp_matmul_rejects_int64_overflow(p):
    # the bound is checked before any work, so empty operands of any inner length will do
    k = -(-(2**63) // (p - 1) ** 2)  # the least k with k (p - 1)^2 >= 2^63
    assert K.gfp_matmul(np.zeros((0, k - 1), np.int64), np.zeros((k - 1, 0), np.int64), p).shape == (0, 0)
    with pytest.raises(ValueError, match="overflow int64"):
        K.gfp_matmul(np.zeros((0, k), np.int64), np.zeros((k, 0), np.int64), p)


@pytest.mark.parametrize("seed", range(6))
def test_gf2_rref_against_reference(seed):
    rng = np.random.default_rng(seed)
    nr, nc = rng.integers(1, 18, size=2)
    dense = rng.integers(0, 2, size=(nr, nc)).astype(np.uint8)
    ref, ref_rank, ref_pivots = ref_rref_mod(dense.tolist(), 2)
    packed = K.pack_rows(dense)
    rank, pivots = K.gf2_rref(packed, int(nc))
    assert rank == ref_rank
    assert list(pivots) == ref_pivots
    assert np.array_equal(K.unpack_rows(packed, int(nc)), np.array(ref, dtype=np.uint8).reshape(nr, nc))


@pytest.mark.parametrize(
    "nr, nc, rank, zero_words",
    [
        (9, 65, 9, ()),  # a second word of one column
        (20, 200, 20, (1,)),  # a zero word between nonzero ones
        (42, 1024, 5, (3, 4, 5, 9)),  # wide and of low rank
        (30, 1100, 12, (2, 7, 8, 16)),  # 1100 = 17 * 64 + 12, with a zero last full word
        (12, 333, 0, ()),  # rank 0
        (70, 130, 70, (1,)),  # more rows than a word has bits, at most rank 66 with word 1 zero
    ],
)
def test_gf2_rref_multi_word_against_reference(nr, nc, rank, zero_words):
    # a product of random nr x rank and rank x nc factors, with some 64-column words cleared
    rng = np.random.default_rng(nr * nc + rank)
    dense = (rng.integers(0, 2, size=(nr, rank)) @ rng.integers(0, 2, size=(rank, nc))) % 2
    for w in zero_words:
        dense[:, 64 * w : 64 * (w + 1)] = 0
    ref, ref_rank, ref_pivots = ref_rref_mod(dense.tolist(), 2)
    assert ref_rank <= rank
    assert not any(64 * w <= c < 64 * (w + 1) for c in ref_pivots for w in zero_words)
    packed = K.pack_rows(dense.astype(np.uint8))
    got_rank, pivots = K.gf2_rref(packed, nc)
    assert got_rank == ref_rank
    assert list(pivots) == ref_pivots
    assert np.array_equal(K.unpack_rows(packed, nc), np.array(ref, dtype=np.uint8))
    # the padding bits past column nc stay zero
    assert np.array_equal(packed, K.pack_rows(K.unpack_rows(packed, nc)))


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("seed", range(4))
def test_gfp_rref_against_reference(p, seed):
    rng = np.random.default_rng(97 * p + seed)
    nr, nc = rng.integers(1, 15, size=2)
    a = rng.integers(0, p, size=(nr, nc)).astype(np.int64)
    ref, ref_rank, ref_pivots = ref_rref_mod(a.tolist(), p)
    work = a.copy()
    rank, pivots = K.gfp_rref(work, p)
    assert rank == ref_rank
    assert list(pivots) == ref_pivots
    assert np.array_equal(work, np.array(ref, dtype=np.int64).reshape(nr, nc))


def _check_blocked_rref(a, p):
    ref, ref_rank, ref_pivots = ref_rref_mod(a.tolist(), p)
    work = a.copy()
    rank, pivots = K.gfp_rref(work, p)
    assert rank == ref_rank
    assert pivots.dtype == np.int64 and list(pivots) == ref_pivots
    assert np.array_equal(work, np.array(ref, dtype=np.int64).reshape(a.shape))


@pytest.mark.parametrize("p", BLOCKED_PRIMES)
@pytest.mark.parametrize("shape", [(130, 150), (300, 70), (70, 300)])
def test_gfp_rref_blocked_dense(p, shape):
    # random dense shapes whose pivots cross the panel boundaries
    rng = np.random.default_rng(shape[0] * p + shape[1])
    _check_blocked_rref(rng.integers(0, p, size=shape).astype(np.int64), p)


@pytest.mark.parametrize("p", BLOCKED_PRIMES)
def test_gfp_rref_blocked_rank_deficient(p):
    # rank 12 spread over 180 columns: most panels find few or no pivots
    rng = np.random.default_rng(p)
    left = rng.integers(0, p, size=(200, 12))
    right = rng.integers(0, p, size=(12, 180))
    right[:, 60:75] = 0
    _check_blocked_rref((left @ right) % p, p)


@pytest.mark.parametrize("p", BLOCKED_PRIMES)
def test_gfp_rref_blocked_intertwiner_system(p, wide_intertwiner_system):
    # the sparse commutant system a (x) I - I (x) a^T of the d=3 Hecke generators, on all 64 unknowns
    gens = hecke_generator_matrices(HeckeParams(3, GF(p), 2))
    system = wide_intertwiner_system(gens, gens, [range(8)], [range(8)])
    assert system.nrows == 2 * 64
    _check_blocked_rref(system.dense().copy(), p)


@pytest.mark.parametrize(
    "p, ncols, bound",
    [(16777259, 4, "float64"), (10000019, 1 << 17, "int64")],
)
def test_gfp_rref_rejects_overflowing_modulus(p, ncols, bound):
    # the bounds are checked before any work
    m = np.zeros((1, ncols), dtype=np.int64)
    with pytest.raises(ValueError, match=bound):
        K.gfp_rref(m, p)


def test_rref_over_a_large_prime_builds_no_inverse_table():
    # pivots are inverted one at a time: GF(2^31 - 1) meets the panel bound before any
    # allocation of order p, and GF(1000003) eliminates exactly
    with pytest.raises(ValueError, match="float64 panel"):
        Matrix.from_rows(GF(2147483647), [[1, 2], [3, 4]]).rref()
    p = 1000003
    a = np.random.default_rng(p).integers(0, p, size=(9, 12)).astype(np.int64)
    a[3] = (2 * a[1] + 5 * a[6]) % p
    ref, ref_rank, ref_pivots = ref_rref_mod(a.tolist(), p)
    r, rank, pivots = Matrix.from_dense(GF(p), a).rref()
    assert (rank, list(pivots)) == (ref_rank, ref_pivots) == (8, ref_pivots)
    assert np.array_equal(r.dense(), np.array(ref, dtype=np.int64))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 12])
def test_charpoly_cayley_hamilton(p, n):
    rng = np.random.default_rng(1000 * p + n)
    a = rng.integers(0, p, size=(n, n)).astype(np.int64)
    coeffs = K.gfp_charpoly(a.copy(), p)
    assert coeffs.shape == (n + 1,)
    assert coeffs[n] % p == 1  # monic
    if n >= 1:
        assert coeffs[n - 1] % p == (-int(a.trace())) % p
        assert coeffs[0] % p == (pow(-1, n, p) * ref_det_mod(a.tolist(), p)) % p
    assert not poly_eval_matrix(coeffs, a, p).any()


@pytest.mark.parametrize("p", (3, 5))
def test_charpoly_triangular_roots(p):
    rng = np.random.default_rng(p)
    n = 6
    a = np.triu(rng.integers(0, p, size=(n, n))).astype(np.int64)
    coeffs = K.gfp_charpoly(a.copy(), p)
    # product of (t - d_i) expanded mod p
    want = np.zeros(n + 1, dtype=np.int64)
    want[0] = 1
    for d in np.diag(a):
        nxt = np.zeros(n + 1, dtype=np.int64)
        nxt[1:] += want[:-1]
        nxt -= int(d) * want
        want = nxt % p
    assert np.array_equal(coeffs % p, want)


@pytest.mark.parametrize("p", PRIMES)
def test_charpoly_companion(p):
    # companion matrix of t^4 + c3 t^3 + c2 t^2 + c1 t + c0
    rng = np.random.default_rng(31 + p)
    c = rng.integers(0, p, size=4).astype(np.int64)
    n = 4
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        a[i + 1, i] = 1
    a[:, n - 1] = (-c) % p
    coeffs = K.gfp_charpoly(a.copy(), p)
    want = np.append(c, 1) % p
    assert np.array_equal(coeffs % p, want)


def test_kernel_contract():
    # the oracle benchmark wraps these module attributes by name and records the backend
    for name in ("gf2_rref", "gf2_matmul", "gfp_rref", "gfp_charpoly"):
        assert inspect.isfunction(getattr(K, name)), name
    assert K.active_backend() == "numpy"
    assert K.HAS_NUMBA is False
