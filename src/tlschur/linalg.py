"""Exact matrices over prime fields GF(p).

A Matrix is immutable: every operation returns a fresh instance.  Storage
depends on the field: packed uint64 bit rows for GF(2) and int64 residue
arrays for GF(p) with p odd; any other field is rejected on construction.
Row reduction uses the first nonzero entry in column order as pivot, so
echelon forms, kernel bases and solutions are deterministic.

Solving and kernels follow the column convention: kernel_basis_matrix(M)
holds a basis of {x : M x = 0} as rows and solve_many(M, B) returns X with
M X = B.  flatten and unflatten convert between matrices and their
row-major flattenings, the coordinates of every intertwiner system.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .fields import GF


def _check_field(field) -> None:
    if not isinstance(field, GF):
        raise ValueError(f"exact matrices need a prime field GF(p), got {field.name}")


def _require(ok: bool, what: str, mats: Sequence["Matrix"]) -> None:
    """Raise ValueError naming the operands unless ok; unlike assert, this survives python -O."""
    if not ok:
        raise ValueError(f"{what} {list(mats)}")


class Matrix:
    """Immutable exact matrix over a field from tlschur.fields."""

    __slots__ = ("field", "nrows", "ncols", "_d")

    def __init__(self, field, nrows: int, ncols: int, data):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._d = data

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(field, rows: Iterable[Sequence]) -> "Matrix":
        _check_field(field)
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        dense = np.array(
            [[field.coerce(x) for x in r] for r in rows] if nrows else [],
            dtype=np.int64,
        ).reshape(nrows, ncols)
        if field.p == 2:
            return Matrix(field, nrows, ncols, _kernels.pack_rows(dense.astype(np.uint8)))
        return Matrix(field, nrows, ncols, dense)

    @staticmethod
    def zeros(field, nrows: int, ncols: int) -> "Matrix":
        _check_field(field)
        if field.p == 2:
            return Matrix(field, nrows, ncols, np.zeros((nrows, max(1, (ncols + 63) // 64)), np.uint64))
        return Matrix(field, nrows, ncols, np.zeros((nrows, ncols), np.int64))

    @staticmethod
    def identity(field, n: int) -> "Matrix":
        _check_field(field)
        eye = np.eye(n, dtype=np.int64)
        if field.p == 2:
            return Matrix(field, n, n, _kernels.pack_rows(eye.astype(np.uint8)))
        return Matrix(field, n, n, eye)

    @staticmethod
    def from_dense(field, dense: np.ndarray) -> "Matrix":
        """Matrix of an integer array, every entry reduced mod p."""
        _check_field(field)
        nrows, ncols = dense.shape
        if field.p == 2:
            # uint8 wraps mod 256, so the parity survives the cast
            bits = dense.astype(np.uint8)
            bits &= 1
            return Matrix(field, nrows, ncols, _kernels.pack_rows(bits))
        return Matrix(field, nrows, ncols, np.asarray(dense, dtype=np.int64) % field.p)

    # -- raw views -----------------------------------------------------------

    def dense(self) -> np.ndarray:
        """Entries as a numpy array: uint8 for GF(2), int64 for GF(p)."""
        if self.field.p == 2:
            return _kernels.unpack_rows(self._d, self.ncols)
        return self._d

    def entry(self, i: int, j: int):
        if self.field.p == 2:
            return int((self._d[i, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))
        return int(self._d[i, j])

    def row(self, i: int) -> tuple:
        return tuple(self.entry(i, j) for j in range(self.ncols))

    # -- structure -----------------------------------------------------------

    def transpose(self) -> "Matrix":
        if self.field.p == 2:
            return Matrix.from_dense(self.field, self.dense().T)
        return Matrix(self.field, self.ncols, self.nrows, self._d.T.copy())

    def select_rows(self, idx: Sequence[int]) -> "Matrix":
        idx = list(idx)
        return Matrix(self.field, len(idx), self.ncols, self._d[idx].copy())

    def select_columns(self, idx: Sequence[int]) -> "Matrix":
        idx = list(idx)
        if self.field.p == 2:
            return Matrix.from_dense(self.field, self.dense()[:, idx])
        return Matrix(self.field, self.nrows, len(idx), self._d[:, idx].copy())

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        _require(len(mats) > 0, "vstack of nothing", mats)
        f = mats[0].field
        ncols = mats[0].ncols
        for m in mats:
            _require(m.field == f and m.ncols == ncols, "cannot vstack", mats)
        data = np.concatenate([m._d for m in mats], axis=0)
        return Matrix(f, sum(m.nrows for m in mats), ncols, data)

    @staticmethod
    def hstack(mats: Sequence["Matrix"]) -> "Matrix":
        _require(len(mats) > 0, "hstack of nothing", mats)
        f = mats[0].field
        nrows = mats[0].nrows
        for m in mats:
            _require(m.field == f and m.nrows == nrows, "cannot hstack", mats)
        if f.p == 2:
            dense = np.concatenate([m.dense() for m in mats], axis=1)
            return Matrix.from_dense(f, dense)
        data = np.concatenate([m._d for m in mats], axis=1)
        return Matrix(f, nrows, sum(m.ncols for m in mats), data)

    @staticmethod
    def block_diag(mats: Sequence["Matrix"]) -> "Matrix":
        _require(len(mats) > 0, "block_diag of nothing", mats)
        f = mats[0].field
        nr = sum(m.nrows for m in mats)
        nc = sum(m.ncols for m in mats)
        out = np.zeros((nr, nc), dtype=np.int64)
        r = c = 0
        for m in mats:
            out[r : r + m.nrows, c : c + m.ncols] = m.dense()
            r += m.nrows
            c += m.ncols
        return Matrix.from_dense(f, out)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        same = self.field == other.field and (self.nrows, self.ncols) == (other.nrows, other.ncols)
        _require(same, "cannot add", (self, other))
        if self.field.p == 2:
            return Matrix(self.field, self.nrows, self.ncols, self._d ^ other._d)
        return Matrix(self.field, self.nrows, self.ncols, (self._d + other._d) % self.field.p)

    def __sub__(self, other: "Matrix") -> "Matrix":
        same = self.field == other.field and (self.nrows, self.ncols) == (other.nrows, other.ncols)
        _require(same, "cannot subtract", (self, other))
        if self.field.p == 2:
            return self + other
        out = self._d - other._d
        out %= self.field.p  # in place: RowSpace.insert and reduce subtract row blocks
        return Matrix(self.field, self.nrows, self.ncols, out)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        if self.field.p == 2:
            return self if c == 1 else Matrix.zeros(self.field, self.nrows, self.ncols)
        return Matrix(self.field, self.nrows, self.ncols, (self._d * c) % self.field.p)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _require(self.field == other.field and self.ncols == other.nrows, "cannot multiply", (self, other))
        f = self.field
        if f.p == 2:
            out = np.zeros((self.nrows, other._d.shape[1]), np.uint64)
            _kernels.gf2_matmul(self._d, self.ncols, other._d, out)
            return Matrix(f, self.nrows, other.ncols, out)
        return Matrix(f, self.nrows, other.ncols, _kernels.gfp_matmul(self._d, other._d, f.p))

    def kron(self, other: "Matrix") -> "Matrix":
        _require(self.field == other.field, "cannot kron", (self, other))
        dense = np.kron(self.dense().astype(np.int64), other.dense().astype(np.int64))
        return Matrix.from_dense(self.field, dense % self.field.p)

    def reshape(self, nrows: int, ncols: int) -> "Matrix":
        """The same entries in row-major order, read as an nrows x ncols matrix."""
        return Matrix.from_dense(self.field, self.dense().reshape(nrows, ncols))

    def is_zero(self) -> bool:
        return not self._d.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return bool(np.array_equal(self._d, other._d))

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.nrows}x{self.ncols})"

    # -- elimination -----------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form; returns (R, rank, pivot columns)."""
        f = self.field
        if f.p == 2:
            d = self._d.copy()
            rank, pivots = _kernels.gf2_rref(d, self.ncols)
            return Matrix(f, self.nrows, self.ncols, d), int(rank), tuple(int(c) for c in pivots)
        d = self._d.copy()
        rank, pivots = _kernels.gfp_rref(d, f.p, None)  # inv is unread; oraclebench/tracer.py wants (m, p, inv)
        return Matrix(f, self.nrows, self.ncols, d), int(rank), tuple(int(c) for c in pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def kernel_basis_matrix(self) -> "Matrix":
        """Basis of {x : self @ x = 0}, one basis vector per row."""
        return kernel_from_rref(*self.rref())

    def solve_many(self, rhs: "Matrix") -> "Matrix | None":
        """Solve self @ X = rhs for all columns at once; None if any is unsolvable.

        Free variables are set to zero, so the solution is deterministic.
        """
        _require(self.field == rhs.field and self.nrows == rhs.nrows, "cannot solve", (self, rhs))
        aug = Matrix.hstack([self, rhs])
        R, rank, pivots = aug.rref()
        if any(p >= self.ncols for p in pivots):
            return None
        f = self.field
        # only the rank pivot rows and the rhs columns carry data
        Rd = R.select_rows(range(rank)).dense()[:, self.ncols :]
        out = np.zeros((self.ncols, rhs.ncols), dtype=Rd.dtype)
        for r, p in enumerate(pivots):
            out[p, :] = Rd[r]
        return Matrix.from_dense(f, out)


def kernel_from_rref(R: Matrix, rank: int, pivots: Sequence[int]) -> Matrix:
    """Kernel basis of a matrix, one vector per row, read off its rref.

    Each free column j gives the vector with 1 at j and minus column j of the
    pivot rows at the pivot positions.  Transposed, the same matrix projects
    onto the quotient by the row space of R.
    """
    pivset = set(pivots)
    free = [j for j in range(R.ncols) if j not in pivset]
    if not free:
        return Matrix.zeros(R.field, 0, R.ncols)
    # only the rank pivot rows carry data; avoid densifying the zero tail
    Rd = R.select_rows(range(rank)).dense().astype(np.int64)
    out = np.zeros((len(free), R.ncols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    if rank:
        out[:, list(pivots)] = (-Rd[:, free].T) % R.field.p
    return Matrix.from_dense(R.field, out)


def reduced_basis(rows: Matrix) -> Matrix:
    """The basis of the row space that kernel_from_rref gives for it as a kernel.

    That basis is the reduced echelon form read from the right: each row
    ends in a 1 at its own column, every other row is 0 there, and the rows
    are sorted by that column.  It depends on the space alone.
    """
    rev = list(reversed(range(rows.ncols)))
    R, rank, _ = rows.select_columns(rev).rref()
    return R.select_rows(reversed(range(rank))).select_columns(rev)


def flatten(mats: Iterable[Matrix]) -> Matrix:
    """Row-major flattenings of equally shaped matrices, stacked one per row."""
    mats = list(mats)
    _require(len(mats) > 0, "flatten of nothing", mats)
    f, shape = mats[0].field, (mats[0].nrows, mats[0].ncols)
    for m in mats:
        _require(m.field == f and (m.nrows, m.ncols) == shape, "cannot flatten", mats)
    # one dense stack, packed or reduced once
    return Matrix.from_dense(f, np.stack([m.dense() for m in mats]).reshape(len(mats), shape[0] * shape[1]))


def unflatten(rows: Matrix, nrows: int, ncols: int) -> list[Matrix]:
    """Inverse of flatten: each row read as an nrows x ncols matrix."""
    dense = rows.dense().reshape(rows.nrows, nrows, ncols)
    return [Matrix.from_dense(rows.field, m) for m in dense]


def flat_products(a: Matrix, rights: Matrix) -> Matrix:
    """flatten(a @ b for b in bs), given rights = Matrix.hstack(bs) of square bs.

    One product a @ rights holds every a @ b side by side; row i of it is the
    i-th rows of all of them, so reading it as (row, factor, column) and
    swapping the first two axes gives the flattenings, one factor per row.
    """
    n = rights.nrows
    _require(n > 0 and rights.ncols % n == 0, "rights are not square blocks", (a, rights))
    k = rights.ncols // n
    side = (a @ rights).dense().reshape(a.nrows, k, n).transpose(1, 0, 2)
    return Matrix.from_dense(a.field, side.reshape(k, a.nrows * n))


class RowSpace:
    """Incremental row space: insert rows, keep an rref basis, test membership.

    basis holds the reduced row echelon form of the span, one row per
    dimension, and pivots its pivot columns.  The rref of a span is unique,
    so inserting rows in any blocks gives the basis of one elimination of
    them all.
    """

    def __init__(self, field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.basis = Matrix.zeros(field, 0, ncols)
        self.pivots: tuple = ()

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def insert(self, rows: Matrix) -> bool:
        """Add rows; returns True if the dimension grew.

        Only the nonzero residuals modulo the basis are eliminated.  They
        vanish at its pivots, so their rref, once its own pivot columns are
        cleared from the basis, merges with it by pivot into the new rref.
        """
        res = self.reduce(rows)
        res = res.select_rows(np.flatnonzero(res._d.any(axis=1)))
        if res.nrows == 0:
            return False
        R, rank, pivots = res.rref()
        basis = R.select_rows(range(rank))
        if self.dim:
            cleared = self.basis - self.basis.select_columns(pivots) @ basis
            merged = self.pivots + pivots
            order = sorted(range(len(merged)), key=merged.__getitem__)
            basis = Matrix.vstack([cleared, basis]).select_rows(order)
            pivots = tuple(merged[i] for i in order)
        self.basis, self.pivots = basis, pivots
        return True

    def reduce(self, rows: Matrix) -> Matrix:
        """Residuals of rows modulo the basis: its rref makes the entries at its pivots the coefficients."""
        if self.dim == 0:
            return rows
        return rows - rows.select_columns(self.pivots) @ self.basis

    def contains(self, rows: Matrix) -> bool:
        """Whether every row lies in the span: its residual modulo the basis is zero."""
        return self.reduce(rows).is_zero()

    def close(self, mats: Sequence[Matrix]) -> None:
        """Grow to the smallest space stable under right multiplication by each of mats."""
        fresh = self.basis  # only the rows at the pivots the last round added; the rest were multiplied before
        while mats and 0 < self.dim < self.ncols:
            before = set(self.pivots)
            if not self.insert(Matrix.vstack([fresh @ a for a in mats])):
                return
            fresh = self.basis.select_rows([i for i, c in enumerate(self.pivots) if c not in before])
