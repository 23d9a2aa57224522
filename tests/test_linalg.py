import random

import numpy as np
import pytest

from tlschur.fields import GF, GF2, GF5
from tlschur.linalg import Matrix, RowSpace, flat_products, flatten, unflatten

FIELDS = [GF2, GF5, GF(3)]
IDS = [f.name for f in FIELDS]


def rand_matrix(f, nrows, ncols, rng):
    return Matrix.from_rows(f, [[f.random(rng) for _ in range(ncols)] for _ in range(nrows)])


def to_rows(m: Matrix) -> list[tuple]:
    """The rows of m as tuples of ints, read entry by entry and, the same, off the dense array."""
    rows = [m.row(i) for i in range(m.nrows)]
    assert rows == [tuple(int(x) for x in r) for r in m.dense()]
    return rows


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_round_trip_and_entry(f):
    rng = random.Random(1)
    m = rand_matrix(f, 5, 7, rng)
    again = Matrix.from_rows(f, to_rows(m))
    assert m == again
    assert m.entry(2, 3) == m.row(2)[3]
    assert m.transpose().transpose() == m


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_matmul_identity_and_associativity(f):
    rng = random.Random(2)
    a = rand_matrix(f, 4, 6, rng)
    b = rand_matrix(f, 6, 3, rng)
    c = rand_matrix(f, 3, 5, rng)
    assert Matrix.identity(f, 4) @ a == a
    assert a @ Matrix.identity(f, 6) == a
    assert (a @ b) @ c == a @ (b @ c)
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_addition_laws(f):
    rng = random.Random(3)
    a = rand_matrix(f, 3, 4, rng)
    b = rand_matrix(f, 3, 4, rng)
    assert a + b == b + a
    assert a - a == Matrix.zeros(f, 3, 4)
    assert (a + b) - b == a
    two = f.add(f.one, f.one)
    assert a.scale(two) == a + a


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
@pytest.mark.parametrize("seed", range(5))
def test_rref_shape_and_rank(f, seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 9), rng.randint(1, 9)
    m = rand_matrix(f, nr, nc, rng)
    R, rank, pivots = m.rref()
    assert rank == len(pivots) <= min(nr, nc)
    assert list(pivots) == sorted(pivots)
    for r, c in enumerate(pivots):
        col = [R.entry(i, c) for i in range(nr)]
        assert col[r] == f.one and all(x == f.zero for i, x in enumerate(col) if i != r)
    for i in range(rank, nr):
        assert all(x == f.zero for x in R.row(i))
    assert m.rank() == m.transpose().rank()


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
@pytest.mark.parametrize("seed", range(5))
def test_kernel_rank_nullity(f, seed):
    rng = random.Random(100 + seed)
    nr, nc = rng.randint(1, 8), rng.randint(1, 8)
    m = rand_matrix(f, nr, nc, rng)
    k = m.kernel_basis_matrix()
    assert m.rank() + k.nrows == nc
    if k.nrows:
        assert (m @ k.transpose()).is_zero()
        assert k.rank() == k.nrows


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
@pytest.mark.parametrize("seed", range(4))
def test_solve_many_consistent_and_inconsistent(f, seed):
    rng = random.Random(200 + seed)
    nr, nc, k = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 4)
    a = rand_matrix(f, nr, nc, rng)
    x = rand_matrix(f, nc, k, rng)
    rhs = a @ x
    sol = a.solve_many(rhs)
    assert sol is not None
    assert a @ sol == rhs
    # an rhs outside the column space must be rejected
    if a.rank() < nr:
        target = Matrix.identity(f, nr)
        full = a.solve_many(target)
        assert full is None


def test_solve_many_wide_rhs_chunking():
    # an 8200-column rhs is solved in one augmented elimination
    f = GF2
    rng = random.Random(7)
    a = rand_matrix(f, 6, 6, rng)
    while a.rank() < 6:
        a = rand_matrix(f, 6, 6, rng)
    x = rand_matrix(f, 6, 8200, rng)
    rhs = a @ x
    sol = a.solve_many(rhs)
    assert sol is not None and a @ sol == rhs


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_stacking_and_blocks(f):
    rng = random.Random(5)
    a = rand_matrix(f, 2, 3, rng)
    b = rand_matrix(f, 4, 3, rng)
    v = Matrix.vstack([a, b])
    assert v.nrows == 6 and v.select_rows(range(2)) == a and v.select_rows(range(2, 6)) == b
    c = rand_matrix(f, 2, 5, rng)
    h = Matrix.hstack([a, c])
    assert h.ncols == 8 and h.select_columns(range(3)) == a and h.select_columns(range(3, 8)) == c
    d = Matrix.block_diag([a, c])
    assert d.nrows == 4 and d.ncols == 8
    assert d.select_rows(range(2)).select_columns(range(3)) == a
    assert d.select_rows(range(2, 4)).select_columns(range(3, 8)) == c
    assert d.select_rows(range(2)).select_columns(range(3, 8)).is_zero()


@pytest.mark.parametrize("f", [GF2, GF5], ids=["GF(2)", "GF(5)"])
def test_kron_mixed_product(f):
    rng = random.Random(6)
    a = rand_matrix(f, 2, 3, rng)
    b = rand_matrix(f, 3, 2, rng)
    c = rand_matrix(f, 2, 2, rng)
    d = rand_matrix(f, 2, 3, rng)
    assert (a @ b).kron(c @ d) == (a.kron(c)) @ (b.kron(d))


@pytest.mark.parametrize("f", [GF2, GF5, GF(7)], ids=["GF(2)", "GF(5)", "GF(7)"])
def test_row_space_blocks_match_one_rref(f):
    # rows of rank 9 in 30 columns, with zero and repeated rows: most blocks
    # are partly or wholly in the span already
    rng = random.Random(f.p)
    gens = rand_matrix(f, 9, 30, rng)
    rows = Matrix.vstack([rand_matrix(f, 40, 9, rng) @ gens, Matrix.zeros(f, 3, 30), gens.select_rows([2, 2])])
    rows = rows.select_rows(rng.sample(range(rows.nrows), rows.nrows))
    R, rank, pivots = rows.rref()
    for _ in range(5):
        cuts = sorted(rng.sample(range(1, rows.nrows), rng.randrange(1, 12)))
        sp = RowSpace(f, 30)
        for lo, hi in zip([0] + cuts, cuts + [rows.nrows]):
            sp.insert(rows.select_rows(range(lo, hi)))
        assert sp.basis == R.select_rows(range(rank))
        assert sp.pivots == pivots


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_row_space_insert_of_span_eliminates_nothing(f, monkeypatch):
    rng = random.Random(9)
    sp = RowSpace(f, 8)
    a = rand_matrix(f, 3, 8, rng)
    assert sp.insert(a)
    basis = sp.basis

    def no_rref(self):
        raise AssertionError("rref called")

    monkeypatch.setattr(Matrix, "rref", no_rref)
    assert not sp.insert(rand_matrix(f, 5, 3, rng) @ a)
    assert not sp.insert(Matrix.zeros(f, 2, 8))
    assert sp.basis == basis


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_row_space_and_residual_rank(f):
    rng = random.Random(8)
    sp = RowSpace(f, 6)
    a = rand_matrix(f, 3, 6, rng)
    b = rand_matrix(f, 4, 6, rng)
    sp.insert(a)
    assert sp.dim == a.rank()
    gain = sp.reduce(b).rank()
    assert gain == Matrix.vstack([a, b]).rank() - a.rank()
    sp.insert(b)
    assert sp.dim == Matrix.vstack([a, b]).rank()
    assert sp.contains(a) and sp.contains(b)
    assert sp.contains(a.select_rows([0]) + b.select_rows([1]))
    small = RowSpace(f, 6)
    small.insert(a)
    rows = [rand_matrix(f, 1, 6, rng) for _ in range(8)] + [a.select_rows([1]).scale(2)]
    assert [small.contains(r) for r in rows] == [small.reduce(r).rank() == 0 for r in rows]
    assert not all(small.contains(r) for r in rows) and small.contains(rows[-1])


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_flatten_round_trip(f):
    rng = random.Random(11)
    # 7 x 70 spans several packed GF(2) words per row and per flattening
    for nrows, ncols in [(1, 1), (3, 5), (7, 70)]:
        mats = [rand_matrix(f, nrows, ncols, rng) for _ in range(4)]
        flat = flatten(mats)
        assert (flat.nrows, flat.ncols) == (4, nrows * ncols)
        assert [flat.select_rows([i]) for i in range(4)] == [m.reshape(1, nrows * ncols) for m in mats]
        assert unflatten(flat, nrows, ncols) == mats
    with pytest.raises(ValueError, match="flatten"):
        flatten([rand_matrix(f, 2, 3, rng), rand_matrix(f, 3, 2, rng)])
    with pytest.raises(ValueError, match="flatten"):
        flatten([])


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_flat_products_flattens_each_product(f):
    rng = random.Random(12)
    bs = [rand_matrix(f, 5, 5, rng) for _ in range(3)]
    for a in (rand_matrix(f, 5, 5, rng), rand_matrix(f, 2, 5, rng)):
        assert flat_products(a, Matrix.hstack(bs)) == flatten(a @ b for b in bs)
    with pytest.raises(ValueError, match="square"):
        flat_products(a, rand_matrix(f, 5, 7, rng))


def test_gf2_packing_odd_widths():
    rng = random.Random(9)
    for nc in (1, 63, 64, 65, 129):
        m = rand_matrix(GF2, 5, nc, rng)
        assert np.array_equal(m.dense(), Matrix.from_dense(GF2, m.dense()).dense())
        assert m.transpose().transpose() == m


def test_gf2_from_dense_reduces_mod_2():
    got = Matrix.from_dense(GF2, np.array([[2, 3, -1, 256]], dtype=np.int64))
    assert got == Matrix.from_rows(GF2, [[0, 1, 1, 0]])
    assert Matrix.from_dense(GF2, 2 * np.eye(3, dtype=np.int64)).is_zero()


def test_matmul_rejects_modulus_beyond_int64():
    f = GF(2147483647)
    a, b = Matrix.from_rows(f, [[1, 2]]), Matrix.from_rows(f, [[3], [4]])
    with pytest.raises(ValueError, match="overflow"):
        a @ b


@pytest.mark.parametrize("f", [GF5, GF(3)], ids=["GF(5)", "GF(3)"])
def test_large_matmul_blas_path_exact(f):
    # wide product goes through the float64 BLAS path; compare against int64
    rng = random.Random(10)
    a = rand_matrix(f, 40, 900, rng)
    b = rand_matrix(f, 900, 30, rng)
    got = (a @ b).dense()
    want = (a.dense().astype(np.int64) @ b.dense().astype(np.int64)) % f.p
    assert np.array_equal(got, want)


def test_mismatched_operands_raise():
    rng = random.Random(11)
    a, b = rand_matrix(GF5, 3, 3, rng), rand_matrix(GF5, 1, 3, rng)
    # numpy would broadcast the 1x3 row over the 3x3 matrix
    for op in (lambda: a - b, lambda: a + b, lambda: a @ b, lambda: Matrix.hstack([a, b]), lambda: a.solve_many(b)):
        with pytest.raises(ValueError, match="GF\\(5\\), 1x3"):
            op()
    c = rand_matrix(GF(7), 3, 3, rng)
    for op in (lambda: a - c, lambda: a @ c, lambda: Matrix.vstack([a, c]), lambda: a.kron(c)):
        with pytest.raises(ValueError, match="GF\\(7\\)"):
            op()
    for stack in (Matrix.vstack, Matrix.hstack, Matrix.block_diag):
        with pytest.raises(ValueError, match="of nothing"):
            stack([])


def test_shape_checks_survive_optimized_mode(run_optimized):
    # without the checks the product would come back 3x5 and the stack 61x60 with dirty padding bits
    code = (
        "from tlschur.fields import GF2\n"
        "from tlschur.linalg import Matrix\n"
        "for op in (lambda: Matrix.identity(GF2, 3) @ Matrix.identity(GF2, 5),\n"
        "           lambda: Matrix.vstack([Matrix.zeros(GF2, 60, 60), Matrix.identity(GF2, 64).select_rows([0])])):\n"
        "    try:\n"
        "        print(op())\n"
        "    except ValueError:\n"
        "        print(__debug__, 'raised')\n"
    )
    out = run_optimized(code)
    assert out[:4] == ["False", "raised", "False", "raised"], out[-1]
