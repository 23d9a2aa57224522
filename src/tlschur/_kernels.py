"""Elimination and product kernels over GF(2) and GF(p).

GF(2) matrices are stored as packed bit rows: one uint64 word holds 64
columns, bit j of word w being column 64*w + j.  Row operations are whole-word
XORs.  GF(p) matrices are int64 arrays of canonical residues.

Each kernel is written once, in numpy, and three of them run on BLAS.
gf2_matmul multiplies the unpacked 0/1 operands as float32, exact while the
inner dimension stays below 2^24.  gfp_matmul is the one exact product mod p,
on float64 BLAS or int64 as the inner length and p allow (after Dumas,
Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 35(3), 2008).  gfp_rref is a
blocked Gauss-Jordan elimination with delayed reduction: the columns go in
panels of _PANEL; the column-by-column loop finds the pivots of a panel among
the rows with a nonzero there, and one float64 product clears the pivot
columns of all other rows, added unreduced to the int64 storage, the only
product mod p outside gfp_matmul.  Only the next panel and the pivot rows are
reduced mod p before they are read.  Products of reduced entries are at most
_PANEL*(p-1)^2 and must stay below 2^53; an entry gains at most
ncols*(p-1)^2 before its reduction and must stay below 2^63.  A modulus that
breaks either bound is rejected with ValueError before any work.  RREF is
unique, so the result equals the unblocked loop's bit for bit.
"""

from __future__ import annotations

import numpy as np

# there is one backend; HAS_NUMBA and active_backend() stay for the reports
# that record which kernels produced a measurement
HAS_NUMBA = False

# column panel width of the blocked GF(p) elimination, and the budget in bytes
# for the transient arrays of one chunk of a BLAS product
_PANEL = 64
_CHUNK_BYTES = 32 << 20


def _float_product(a, b):
    """Integer product a @ b on float64 BLAS, unreduced; exact while every sum stays below 2^53."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


def gfp_matmul(a, b, p):
    """a @ b mod p of canonical residues, batched like np.matmul, as int64 residues.

    For inner length k: float64 BLAS while k*(p-1)^2 < 2^53, int64 while
    k*(p-1)^2 < 2^63, ValueError beyond, so every sum of products is exact.
    """
    k = a.shape[-1]
    if k * (p - 1) ** 2 < 2**53:
        out = (a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)).astype(np.int64)
    elif k * (p - 1) ** 2 < 2**63:
        out = a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    else:
        raise ValueError(f"gfp_matmul: GF({p}) products of length {k} overflow int64")
    out %= p
    return out


# ---------------------------------------------------------------------------
# packing helpers

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

def gf2_rref(rows, ncols):
    nrows, nwords = rows.shape
    pivots = []
    rank = 0
    one = np.uint64(1)
    col = 0
    while col < ncols and rank < nrows:
        w = col >> 6
        # the next pivot column is the lowest column from col on in word w that is
        # set in a row below the pivot rows; with none, go on to the next word
        live = int(np.bitwise_or.reduce(rows[rank:, w])) >> (col & 63)
        if not live:
            col = (w + 1) << 6
            continue
        col += (live & -live).bit_length() - 1
        if col >= ncols:  # only padding bits, which pack_rows leaves zero
            break
        b = np.uint64(col & 63)
        cand = np.nonzero((rows[rank:, w] >> b) & one)[0]
        piv = rank + int(cand[0])
        if piv != rank:
            rows[[rank, piv], w:] = rows[[piv, rank], w:]
        hits = ((rows[:, w] >> b) & one).astype(bool)
        hits[rank] = False
        if hits.any():
            rows[hits, w:] ^= rows[rank, w:]
        pivots.append(col)
        rank += 1
        col += 1
    return rank, np.asarray(pivots, dtype=np.int64)


# ---------------------------------------------------------------------------
# GF(2) matrix product: out[i] = XOR of rows of b selected by bits of a[i]

def gf2_matmul(a, a_ncols, b, out):
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
# GF(p) reduced row echelon form (int64 residues, each pivot inverted by pow; gfp_rref's inv is unread)

def _gfp_rref_loop(m, p):
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
        s = pow(int(m[rank, col]), -1, p)
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


def gfp_rref(m, p, inv=None):
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
        k, cols, local = _gfp_rref_loop(panel, p)
        cols += c0
        rows = live[local]
        # pivot rows: the loop normalised their panel part; right of the panel
        # they are multiplied by the inverse of their k x k pivot block
        top = np.empty((k, ncols - c0), dtype=np.int64)
        top[:, : c1 - c0] = panel[:k]
        if c1 < ncols:
            block = np.concatenate([m[rows[:, None], cols], np.eye(k, dtype=np.int64)], axis=1)
            _gfp_rref_loop(block, p)
            top[:, c1 - c0 :] = gfp_matmul(block[:, k:], m[rows, c1:] % p, p)
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
# leading-principal-minor recurrence; returns coeffs[j] of t^j, length n + 1.
# No oracle stage calls it now; the benchmark's tracer still wraps it by name

def gfp_charpoly(a, p):
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
        s = pow(int(h[c + 1, c]), -1, p)
        f = (h[c + 2 :, c] * s) % p
        h[c + 2 :, :] = (h[c + 2 :, :] - f[:, None] * h[c + 1, :]) % p
        h[:, c + 1] = (h[:, c + 1] + gfp_matmul(h[:, c + 2 :], f, p)) % p
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


def active_backend() -> str:
    return "numpy"
