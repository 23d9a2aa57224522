"""Decomposition numbers and tilting data for S(2, d) in characteristic 2.

A two-part partition of d with at most two rows is recorded by its dominant
weight m = (first part) - (second part), so 0 <= m <= d and m = d mod 2.
All decomposition numbers here are 0 or 1, so a row is stored as the set of
weights with entry 1.

decomp_row(m) is the set of n with [Delta(m) : L(n)] = 1.  It satisfies the
doubling recursion driven by the Frobenius twist: row(0) = {0}, row(1) = {1},

    row(2t)   = {2s : s in row(t)} union {2s : s in row(t-1)}
    row(2t+1) = {2s+1 : s in row(t)}

where the even-case union is disjoint because row(t) and row(t-1) carry
opposite parities.  Tilting multiplicities follow the companion recursion
with T(0) = {0}, T(1) = {1}, T(2) = {0, 2} and

    mults(2s)   = union over t in mults(s-1) of {2t, 2t+2}
    mults(2s+1) = {2t+1 : t in mults(s)}

and the twisted filtration of T(m), m even, lists the pairs (2s, 2s+2) over
the weights s of the tilting multiplicities of T(m/2 - 1) in ascending order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache


@lru_cache(maxsize=None)
def decomp_row(m: int) -> frozenset[int]:
    """Weights n with decomposition number [Delta(m) : L(n)] equal to 1."""
    if m < 0:
        raise ValueError("weight must be nonnegative")
    if m == 0:
        return frozenset({0})
    if m == 1:
        return frozenset({1})
    if m % 2 == 0:
        t = m // 2
        a = {2 * s for s in decomp_row(t)}
        b = {2 * s for s in decomp_row(t - 1)}
        if a & b:
            raise RuntimeError(f"doubling overlap at m={m}")
        return frozenset(a | b)
    t = (m - 1) // 2
    return frozenset({2 * s + 1 for s in decomp_row(t)})


@dataclass(frozen=True)
class DecompTable:
    """0/1 decomposition matrix of S(2, d) for even d, rows and columns by weight."""

    degree: int
    weights: tuple[int, ...]
    rows: tuple[frozenset[int], ...]

    def entry(self, m: int, n: int) -> int:
        return 1 if n in self.rows[self.weights.index(m)] else 0

    def to_csv(self) -> str:
        header = "m," + ",".join(str(w) for w in self.weights)
        lines = [header]
        for w, row in zip(self.weights, self.rows):
            lines.append(f"{w}," + ",".join("1" if c in row else "0" for c in self.weights))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "degree": self.degree,
                "weights": list(self.weights),
                "matrix": [[self.entry(m, n) for n in self.weights] for m in self.weights],
            },
            sort_keys=True,
        )

    def pretty(self) -> str:
        """Aligned table with '1' for a nonzero entry and '.' for zero."""
        width = max(len(str(w)) for w in self.weights)
        head = " " * (width + 1) + " ".join(f"{w:>{width}}" for w in self.weights)
        lines = [head]
        for w, row in zip(self.weights, self.rows):
            cells = " ".join(f"{'1' if c in row else '.':>{width}}" for c in self.weights)
            lines.append(f"{w:>{width}} {cells}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "DecompTable":
        lines = [ln for ln in text.strip().splitlines() if ln]
        header = lines[0].split(",")
        if header[0] != "m":
            raise ValueError("decomposition CSV must start with an 'm' header")
        weights = tuple(int(x) for x in header[1:])
        rows = []
        for ln in lines[1:]:
            cells = ln.split(",")
            vals = [int(x) for x in cells[1:]]
            rows.append(frozenset(w for w, v in zip(weights, vals) if v))
        return DecompTable(weights[-1], weights, tuple(rows))

    @staticmethod
    def from_json(text: str) -> "DecompTable":
        obj = json.loads(text)
        weights = tuple(int(w) for w in obj["weights"])
        rows = tuple(
            frozenset(w for w, v in zip(weights, rowvals) if v) for rowvals in obj["matrix"]
        )
        return DecompTable(int(obj["degree"]), weights, rows)


def _check_even_degree(d: int):
    if d < 0 or d % 2 != 0:
        raise ValueError(f"degree must be even and nonnegative, got {d}")


def decomposition_matrix(d: int) -> DecompTable:
    """Decomposition matrix for even degree d; odd degrees are refused."""
    _check_even_degree(d)
    weights = tuple(range(0, d + 1, 2))
    rows = tuple(decomp_row(m) for m in weights)
    return DecompTable(d, weights, rows)


def projective_column(d: int, m: int) -> frozenset[int]:
    """Weights w with [Delta(w) : L(m)] = 1 for w admissible in degree d."""
    _check_even_degree(d)
    if m < 0 or m > d or m % 2 != 0:
        raise ValueError(f"weight {m} not admissible for even degree {d}")
    return frozenset(w for w in range(0, d + 1, 2) if m in decomp_row(w))


@lru_cache(maxsize=None)
def tilting_delta_mults(m: int) -> frozenset[int]:
    """Weights s with a standard factor Delta(s) in the tilting module T(m).

    All multiplicities are at most 1, so the multiset is a set; this is
    checked when merging.
    """
    if m < 0:
        raise ValueError("weight must be nonnegative")
    if m == 0:
        return frozenset({0})
    if m == 1:
        return frozenset({1})
    if m == 2:
        return frozenset({0, 2})
    if m % 2 == 0:
        s = m // 2
        out: set[int] = set()
        for t in tilting_delta_mults(s - 1):
            pair = {2 * t, 2 * t + 2}
            if out & pair:
                raise RuntimeError(f"tilting multiplicity above 1 at m={m}")
            out |= pair
        return frozenset(out)
    s = (m - 1) // 2
    return frozenset({2 * t + 1 for t in tilting_delta_mults(s)})


def twisted_filtration(m: int) -> tuple[tuple[int, int], ...]:
    """Consecutive-pair filtration of T(m) for even m >= 2.

    Returns pairs (2s, 2s+2) over the ascending standard weights s of
    T(m/2 - 1); flattening reproduces tilting_delta_mults(m) exactly once.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"twisted filtration needs even m >= 2, got {m}")
    return tuple((2 * s, 2 * s + 2) for s in sorted(tilting_delta_mults(m // 2 - 1)))
