"""Elimination kernels over GF(2) and GF(p).

GF(2) matrices are stored as packed bit rows: one uint64 word holds 64
columns, bit j of word w being column 64*w + j.  Row operations are whole-word
XORs.  GF(p) matrices are int64 arrays of canonical residues.

Each kernel has two implementations: a numba @njit version and a pure-numpy
vectorized fallback.  The active backend is chosen at import time; setting
the environment variable TLSCHUR_PURE_NUMPY=1 (or a failed numba import)
selects the fallback.  Both implementations are importable by name so the
benchmark and the parity tests can compare them directly.

Two numpy fallbacks run on BLAS.  gf2_matmul_numpy multiplies the unpacked
0/1 operands as float32, exact while the inner dimension stays below 2^24.
gfp_rref_numpy is a blocked Gauss-Jordan elimination with delayed reduction
(after Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 35(3), 2008): the
columns go in panels of _PANEL; the column-by-column loop finds the pivots
of a panel among the rows with a nonzero there, and one float64 product
clears the pivot columns of all other rows, added unreduced to the int64
storage.  Only the next panel and the pivot rows are reduced mod p before
they are read.  Products of reduced entries are at most _PANEL*(p-1)^2 and
must stay below 2^53; an entry gains at most ncols*(p-1)^2 before its
reduction and must stay below 2^63.  A modulus that breaks either bound is
rejected with ValueError before any work.  RREF is unique, so the result
equals the unblocked loop's bit for bit.
"""

from __future__ import annotations

import os

import numpy as np

_PURE_ENV = os.environ.get("TLSCHUR_PURE_NUMPY", "")
_WANT_NUMBA = _PURE_ENV in ("", "0")

try:  # pragma: no cover - exercised implicitly by backend selection
    if _WANT_NUMBA:
        from numba import njit

        HAS_NUMBA = True
    else:
        HAS_NUMBA = False
except ImportError:  # pragma: no cover
    HAS_NUMBA = False

if not HAS_NUMBA:
    def njit(*args, **kwargs):  # type: ignore[no-redef]
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap


# column panel width of the blocked GF(p) elimination, and the budget in bytes
# for the transient arrays of one chunk of a BLAS product
_PANEL = 64
_CHUNK_BYTES = 32 << 20


def _float_product(a, b):
    """Integer product a @ b on float64 BLAS; exact while every sum stays below 2^53."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


# ---------------------------------------------------------------------------
# packing helpers (numpy only)

def pack_rows(dense: np.ndarray) -> np.ndarray:
    """Pack a 0/1 uint8 matrix into uint64 words, 64 columns per word."""
    dense = np.asarray(dense, dtype=np.uint8)
    nrows, ncols = dense.shape
    nwords = max(1, (ncols + 63) // 64)
    bits = np.zeros((nrows, nwords * 64), dtype=np.uint8)
    bits[:, :ncols] = dense
    # little-endian words put column 64*w + j at bit j of word w
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64, copy=False)


def unpack_rows(packed: np.ndarray, ncols: int) -> np.ndarray:
    """Inverse of pack_rows; returns a uint8 matrix of shape (nrows, ncols)."""
    octets = np.ascontiguousarray(packed, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, count=ncols, bitorder="little")


# ---------------------------------------------------------------------------
# GF(2) reduced row echelon form

@njit(cache=True)
def gf2_rref_numba(rows, ncols):  # pragma: no cover - numba-compiled
    nrows, nwords = rows.shape
    cap = nrows if nrows < ncols else ncols
    pivots = np.empty(cap, dtype=np.int64)
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        w = col >> 6
        b = np.uint64(col & 63)
        one = np.uint64(1)
        piv = -1
        for r in range(rank, nrows):
            if (rows[r, w] >> b) & one:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            for j in range(w, nwords):
                t = rows[rank, j]
                rows[rank, j] = rows[piv, j]
                rows[piv, j] = t
        for r in range(nrows):
            if r != rank and ((rows[r, w] >> b) & one):
                for j in range(w, nwords):
                    rows[r, j] ^= rows[rank, j]
        pivots[rank] = col
        rank += 1
    return rank, pivots[:rank]


def gf2_rref_numpy(rows, ncols):
    nrows, nwords = rows.shape
    pivots = []
    rank = 0
    one = np.uint64(1)
    for col in range(ncols):
        if rank == nrows:
            break
        w = col >> 6
        b = np.uint64(col & 63)
        cand = np.nonzero((rows[rank:, w] >> b) & one)[0]
        if cand.size == 0:
            continue
        piv = rank + int(cand[0])
        if piv != rank:
            rows[[rank, piv], w:] = rows[[piv, rank], w:]
        hits = ((rows[:, w] >> b) & one).astype(bool)
        hits[rank] = False
        if hits.any():
            rows[hits, w:] ^= rows[rank, w:]
        pivots.append(col)
        rank += 1
    return rank, np.asarray(pivots, dtype=np.int64)


# ---------------------------------------------------------------------------
# GF(2) matrix product: out[i] = XOR of rows of b selected by bits of a[i]

@njit(cache=True)
def gf2_matmul_numba(a, a_ncols, b, out):  # pragma: no cover - numba-compiled
    m = a.shape[0]
    wb = b.shape[1]
    one = np.uint64(1)
    for i in range(m):
        for k in range(a_ncols):
            if (a[i, k >> 6] >> np.uint64(k & 63)) & one:
                for j in range(wb):
                    out[i, j] ^= b[k, j]


def gf2_matmul_numpy(a, a_ncols, b, out):
    # 0/1 float32 products are exact while each sum has fewer than 2^24 terms
    if a_ncols >= 2**24:
        raise ValueError(f"gf2_matmul: {a_ncols} columns exceed the float32 bound 2^24")
    # the padding bits of b are zero, so the product keeps those of out zero
    nbits = b.shape[1] * 64
    bf = unpack_rows(b[:a_ncols], nbits).astype(np.float32)
    step = max(1, _CHUNK_BYTES // (4 * max(a_ncols, nbits)))
    for lo in range(0, a.shape[0], step):
        af = unpack_rows(a[lo : lo + step], a_ncols).astype(np.float32)
        prod = (af @ bf).astype(np.int32) & 1
        out[lo : lo + step] ^= pack_rows(prod.astype(np.uint8))


# ---------------------------------------------------------------------------
# GF(p) reduced row echelon form (int64 residues, inverse lookup table)

@njit(cache=True)
def gfp_rref_numba(m, p, inv):  # pragma: no cover - numba-compiled
    nrows, ncols = m.shape
    cap = nrows if nrows < ncols else ncols
    pivots = np.empty(cap, dtype=np.int64)
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = -1
        for r in range(rank, nrows):
            if m[r, col] != 0:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            for j in range(col, ncols):
                t = m[rank, j]
                m[rank, j] = m[piv, j]
                m[piv, j] = t
        s = inv[m[rank, col]]
        if s != 1:
            for j in range(col, ncols):
                m[rank, j] = (m[rank, j] * s) % p
        for r in range(nrows):
            c = m[r, col]
            if r != rank and c != 0:
                for j in range(col, ncols):
                    m[r, j] = (m[r, j] - c * m[rank, j]) % p
        pivots[rank] = col
        rank += 1
    return rank, pivots[:rank]


def _gfp_rref_loop(m, p, inv):
    """Column-by-column Gauss-Jordan on canonical residues, in place.

    Returns (rank, pivot columns, original index of each pivot row).
    """
    nrows, ncols = m.shape
    order = np.arange(nrows)
    pivots = []
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        cand = np.nonzero(m[rank:, col])[0]
        if cand.size == 0:
            continue
        piv = rank + int(cand[0])
        if piv != rank:
            m[[rank, piv], col:] = m[[piv, rank], col:]
            order[[rank, piv]] = order[[piv, rank]]
        s = inv[m[rank, col]]
        if s != 1:
            m[rank, col:] = (m[rank, col:] * s) % p
        factors = m[:, col].copy()
        factors[rank] = 0
        hits = np.nonzero(factors)[0]
        if hits.size:
            m[hits, col:] = (m[hits, col:] - factors[hits, None] * m[rank, col:]) % p
        pivots.append(col)
        rank += 1
    return rank, np.asarray(pivots, dtype=np.int64), order[:rank]


def gfp_rref_numpy(m, p, inv):
    nrows, ncols = m.shape
    # float64 products of reduced factors are exact below 2^53; the unreduced
    # products add at most ncols*(p-1)^2 to an int64 entry in all
    if _PANEL * (p - 1) ** 2 >= 2**53:
        raise ValueError(f"gfp_rref: p={p} overflows the float64 panel product")
    if p + ncols * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"gfp_rref: p={p} with {ncols} columns overflows int64 accumulation")
    pivots = []
    rank = 0
    for c0 in range(0, ncols, _PANEL):
        if rank == nrows:
            break
        c1 = min(c0 + _PANEL, ncols)
        m[:, c0:c1] %= p
        live = rank + np.flatnonzero(m[rank:, c0:c1].any(axis=1))
        if live.size == 0:
            continue
        panel = m[live, c0:c1]
        k, cols, local = _gfp_rref_loop(panel, p, inv)
        cols += c0
        rows = live[local]
        # pivot rows: the loop normalised their panel part; right of the panel
        # they are multiplied by the inverse of their k x k pivot block
        top = np.empty((k, ncols - c0), dtype=np.int64)
        top[:, : c1 - c0] = panel[:k]
        if c1 < ncols:
            block = np.concatenate([m[rows[:, None], cols], np.eye(k, dtype=np.int64)], axis=1)
            _gfp_rref_loop(block, p, inv)
            top[:, c1 - c0 :] = _float_product(block[:, k:], m[rows, c1:] % p) % p
        # clear the pivot columns of the rows above and of the other live rows,
        # the only rows with a nonzero there, adding the negated multiples unreduced
        others = np.ones(live.size, dtype=bool)
        others[local] = False
        cand = np.concatenate([np.arange(rank), live[others]])
        factors = m[cand[:, None], cols]
        sel = factors.any(axis=1)
        hit = cand[sel]
        neg = (p - factors[sel]) % p
        # row chunks keep the product, its gather and its sum within _CHUNK_BYTES
        step = max(1, _CHUNK_BYTES // (32 * (ncols - c0)))
        for lo in range(0, hit.size, step):
            m[hit[lo : lo + step], c0:] += _float_product(neg[lo : lo + step], top)
        # swap the pivot rows into place: rows that held the spots move to the
        # pivot rows' old places
        moved = rows[rows >= rank + k]
        if moved.size:
            free = np.ones(k, dtype=bool)
            free[rows[rows < rank + k] - rank] = False
            m[moved] = m[rank + np.flatnonzero(free)]
        m[rank : rank + k, c0:] = top
        pivots.extend(cols.tolist())
        rank += k
    # rows below the rank, and the pivot rows left of their panel, are zero
    # mod p by construction
    m[:rank] %= p
    m[rank:] = 0
    return rank, np.asarray(pivots, dtype=np.int64)


# ---------------------------------------------------------------------------
# characteristic polynomial mod p: Hessenberg similarity reduction, then the
# leading-principal-minor recurrence; returns coeffs[j] of t^j, length n + 1

@njit(cache=True)
def gfp_charpoly_numba(a, p, inv):  # pragma: no cover - numba-compiled
    n = a.shape[0]
    h = a.copy()
    for c in range(n - 2):
        piv = -1
        for r in range(c + 1, n):
            if h[r, c] != 0:
                piv = r
                break
        if piv < 0:
            continue
        if piv != c + 1:
            for j in range(n):
                t = h[piv, j]
                h[piv, j] = h[c + 1, j]
                h[c + 1, j] = t
            for i in range(n):
                t = h[i, piv]
                h[i, piv] = h[i, c + 1]
                h[i, c + 1] = t
        s = inv[h[c + 1, c]]
        for r in range(c + 2, n):
            f = (h[r, c] * s) % p
            if f != 0:
                for j in range(c, n):
                    h[r, j] = (h[r, j] - f * h[c + 1, j]) % p
                for i in range(n):
                    h[i, c + 1] = (h[i, c + 1] + f * h[i, r]) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for k in range(1, n + 1):
        dk = h[k - 1, k - 1]
        for j in range(k):
            polys[k, j + 1] = polys[k - 1, j]
        for j in range(k):
            polys[k, j] = (polys[k, j] - dk * polys[k - 1, j]) % p
        prod_sub = 1
        for i in range(k - 1, 0, -1):
            prod_sub = (prod_sub * h[i, i - 1]) % p
            if prod_sub == 0:
                break
            coef = (h[i - 1, k - 1] * prod_sub) % p
            if coef != 0:
                for j in range(i):
                    polys[k, j] = (polys[k, j] - coef * polys[i - 1, j]) % p
    return polys[n].copy()


def gfp_charpoly_numpy(a, p, inv):
    n = a.shape[0]
    h = a.astype(np.int64).copy()
    for c in range(n - 2):
        nz = np.nonzero(h[c + 1 :, c])[0]
        if nz.size == 0:
            continue
        piv = c + 1 + int(nz[0])
        if piv != c + 1:
            h[[piv, c + 1], :] = h[[c + 1, piv], :]
            h[:, [piv, c + 1]] = h[:, [c + 1, piv]]
        s = int(inv[h[c + 1, c]])
        f = (h[c + 2 :, c] * s) % p
        h[c + 2 :, :] = (h[c + 2 :, :] - f[:, None] * h[c + 1, :]) % p
        h[:, c + 1] = (h[:, c + 1] + h[:, c + 2 :] @ f) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for k in range(1, n + 1):
        polys[k, 1 : k + 1] = polys[k - 1, :k]
        polys[k, :k] = (polys[k, :k] - h[k - 1, k - 1] * polys[k - 1, :k]) % p
        prod_sub = 1
        for i in range(k - 1, 0, -1):
            prod_sub = (prod_sub * int(h[i, i - 1])) % p
            if prod_sub == 0:
                break
            coef = (int(h[i - 1, k - 1]) * prod_sub) % p
            if coef:
                polys[k, :i] = (polys[k, :i] - coef * polys[i - 1, :i]) % p
    return polys[n] % p


# ---------------------------------------------------------------------------
# backend selection

if HAS_NUMBA:
    BACKEND = "numba"
    gf2_rref = gf2_rref_numba
    gf2_matmul = gf2_matmul_numba
    gfp_rref = gfp_rref_numba
    gfp_charpoly = gfp_charpoly_numba
else:
    BACKEND = "numpy"
    gf2_rref = gf2_rref_numpy
    gf2_matmul = gf2_matmul_numpy
    gfp_rref = gfp_rref_numpy
    gfp_charpoly = gfp_charpoly_numpy


def active_backend() -> str:
    return BACKEND
