"""Temperley-Lieb algebra TL_d(delta) on its planar diagram basis.

A diagram on d strands is a perfect non-crossing matching of 2d boundary
points.  Points are linearized counterclockwise: top row left to right is
0..d-1, then the bottom row right to left is d..2d-1, so bottom column j
(0-based, left to right) is point 2d-1-j.  On that linear order planarity
is the usual non-crossing condition for chords.

Composition stacks the left factor above the right factor, joins the middle
rows, traces paths, and counts closed loops; each loop contributes one
factor of delta to the product in the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .fields import QQ


def catalan(d: int) -> int:
    return comb(2 * d, d) // (d + 1)


class PlanarDiagram:
    """Non-crossing perfect matching of the 2d boundary points of a TL diagram."""

    __slots__ = ("d", "pairs")

    def __init__(self, d: int, pairs):
        pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
        flat = [x for p in pairs for x in p]
        if sorted(flat) != list(range(2 * d)):
            raise ValueError(f"not a perfect matching of {2*d} points: {pairs}")
        for i, (a, b) in enumerate(pairs):
            for c, e in pairs[i + 1 :]:
                if a < c < b < e or c < a < e < b:
                    raise ValueError(f"crossing chords {(a, b)} and {(c, e)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, *a):
        raise AttributeError("PlanarDiagram is immutable")

    @staticmethod
    def identity(d: int) -> "PlanarDiagram":
        return PlanarDiagram(d, [(j, 2 * d - 1 - j) for j in range(d)])

    @staticmethod
    def cup_cap(d: int, i: int) -> "PlanarDiagram":
        """Diagram of the generator U_i (1-based, 1 <= i <= d-1)."""
        if not 1 <= i <= d - 1:
            raise ValueError(f"generator index {i} out of range for {d} strands")
        pairs = [(i - 1, i), (2 * d - 1 - (i - 1), 2 * d - 1 - i)]
        for j in range(d):
            if j not in (i - 1, i):
                pairs.append((j, 2 * d - 1 - j))
        return PlanarDiagram(d, pairs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlanarDiagram)
            and self.d == other.d
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.d, self.pairs))

    def __lt__(self, other: "PlanarDiagram") -> bool:
        return self.pairs < other.pairs

    def __repr__(self):
        return f"PlanarDiagram({self.d}, {list(self.pairs)})"

    def top_pairs(self) -> list[tuple[int, int]]:
        """Arcs with both ends on the top row, as column pairs."""
        return [(a, b) for a, b in self.pairs if a < self.d and b < self.d]

    def bottom_pairs(self) -> list[tuple[int, int]]:
        """Arcs with both ends on the bottom row, as column pairs."""
        d = self.d
        return [
            tuple(sorted((2 * d - 1 - a, 2 * d - 1 - b)))
            for a, b in self.pairs
            if a >= d and b >= d
        ]

    def through_pairs(self) -> list[tuple[int, int]]:
        """Through strands as (top column, bottom column)."""
        d = self.d
        return [(a, 2 * d - 1 - b) for a, b in self.pairs if a < d <= b]


def compose_diagrams(a: PlanarDiagram, b: PlanarDiagram) -> tuple[PlanarDiagram, int]:
    """Stack a above b, trace paths, return (resulting diagram, closed loops)."""
    if a.d != b.d:
        raise ValueError("strand count mismatch")
    d = a.d
    # vertex labels: 0..d-1 top of a; d..2d-1 middle (column j -> d+j);
    # 2d..3d-1 bottom of b (column j -> 2d+j)
    adj: dict[int, list[int]] = {v: [] for v in range(3 * d)}

    def link(u, v):
        adj[u].append(v)
        adj[v].append(u)

    for x, y in a.pairs:
        u = x if x < d else d + (2 * d - 1 - x)
        v = y if y < d else d + (2 * d - 1 - y)
        link(u, v)
    for x, y in b.pairs:
        u = d + x if x < d else 2 * d + (2 * d - 1 - x)
        v = d + y if y < d else 2 * d + (2 * d - 1 - y)
        link(u, v)

    seen = [False] * (3 * d)
    pairs = []
    for start in list(range(d)) + list(range(2 * d, 3 * d)):
        if seen[start]:
            continue
        seen[start] = True
        prev, cur = None, start
        while True:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            seen[nxt] = True
            if len(adj[nxt]) == 1:
                break
            prev, cur = cur, nxt
        end = nxt
        pa = start if start < d else 2 * d - 1 - (start - 2 * d)
        pb = end if end < d else 2 * d - 1 - (end - 2 * d)
        pairs.append((pa, pb))
    loops = 0
    for v in range(d, 2 * d):
        if not seen[v]:
            loops += 1
            seen[v] = True
            prev, cur = None, v
            while True:
                nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                if nxt == v:
                    break
                seen[nxt] = True
                prev, cur = cur, nxt
    return PlanarDiagram(d, pairs), loops


@lru_cache(maxsize=None)
def all_diagrams(d: int) -> tuple[PlanarDiagram, ...]:
    """All catalan(d) planar diagrams, in canonical sorted order."""

    def matchings(points: tuple[int, ...]):
        if not points:
            yield []
            return
        first = points[0]
        for k in range(1, len(points), 2):
            left = points[1:k]
            right = points[k + 1 :]
            for lm in matchings(left):
                for rm in matchings(right):
                    yield [(first, points[k])] + lm + rm

    out = [PlanarDiagram(d, m) for m in matchings(tuple(range(2 * d)))]
    return tuple(sorted(out))


def dimension(d: int) -> int:
    """dim TL_d as the Catalan number."""
    return catalan(d)


@dataclass(frozen=True)
class TLParams:
    """Strand count, loop parameter and coefficient field of TL_d(delta)."""

    d: int
    delta: object
    field: object = QQ

    def __post_init__(self):
        object.__setattr__(self, "delta", self.field.coerce(self.delta))


class TLElement:
    """Linear combination of planar diagrams with scalar coefficients."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: TLParams, coeffs: dict | None = None):
        self.params = params
        clean = {}
        if coeffs:
            for dg, c in coeffs.items():
                c = params.field.coerce(c)
                if c != params.field.zero:
                    clean[dg] = c
        self.coeffs = clean

    @staticmethod
    def zero(params: TLParams) -> "TLElement":
        return TLElement(params, {})

    @staticmethod
    def one(params: TLParams) -> "TLElement":
        return TLElement(params, {PlanarDiagram.identity(params.d): params.field.one})

    @staticmethod
    def generator(params: TLParams, i: int) -> "TLElement":
        return TLElement(params, {PlanarDiagram.cup_cap(params.d, i): params.field.one})

    def __add__(self, other: "TLElement") -> "TLElement":
        if self.params != other.params:
            raise ValueError(f"elements over different parameters: {self.params} and {other.params}")
        f = self.params.field
        out = dict(self.coeffs)
        for dg, c in other.coeffs.items():
            out[dg] = f.add(out.get(dg, f.zero), c)
        return TLElement(self.params, out)

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + other.scale(self.params.field.neg(self.params.field.one))

    def scale(self, c) -> "TLElement":
        f = self.params.field
        c = f.coerce(c)
        return TLElement(self.params, {dg: f.mul(v, c) for dg, v in self.coeffs.items()})

    def __mul__(self, other: "TLElement") -> "TLElement":
        if self.params != other.params:
            raise ValueError(f"elements over different parameters: {self.params} and {other.params}")
        f = self.params.field
        delta = self.params.delta
        out: dict = {}
        for da, ca in self.coeffs.items():
            for db, cb in other.coeffs.items():
                dg, loops = compose_diagrams(da, db)
                c = f.mul(ca, cb)
                for _ in range(loops):
                    c = f.mul(c, delta)
                if c != f.zero:
                    out[dg] = f.add(out.get(dg, f.zero), c)
        return TLElement(self.params, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TLElement)
            and self.params == other.params
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "TLElement(0)"
        f = self.params.field
        bits = [f"{f.fmt(c)}*{dg!r}" for dg, c in sorted(self.coeffs.items(), key=lambda kv: kv[0].pairs)]
        return "TLElement(" + " + ".join(bits) + ")"


@dataclass(frozen=True)
class RelationReport:
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_relations(params: TLParams) -> RelationReport:
    """Verify the defining presentation on the diagram model.

    U_i^2 = delta U_i, U_i U_{i+-1} U_i = U_i, and distant generators commute.
    """
    d = params.d
    gens = {i: TLElement.generator(params, i) for i in range(1, d)}
    checked = 0
    bad: list[str] = []
    for i in range(1, d):
        u = gens[i]
        checked += 1
        if u * u != u.scale(params.delta):
            bad.append(f"U{i}^2 != delta*U{i}")
        for j in range(1, d):
            if abs(i - j) == 1:
                checked += 1
                if u * gens[j] * u != u:
                    bad.append(f"U{i}U{j}U{i} != U{i}")
            elif i != j:
                checked += 1
                if u * gens[j] != gens[j] * u:
                    bad.append(f"U{i}U{j} != U{j}U{i}")
    return RelationReport(checked, tuple(bad))


def word_element(params: TLParams, word) -> TLElement:
    """Product of generators U_i over an iterable of 1-based indices."""
    acc = TLElement.one(params)
    for i in word:
        acc = acc * TLElement.generator(params, int(i))
    return acc


def ascii_diagram(dg: PlanarDiagram) -> str:
    """Sideways ASCII rendering: top ports on the left, bottom ports on the right."""
    d = dg.d
    tops = sorted(dg.top_pairs())
    bots = sorted(dg.bottom_pairs())
    thrus = sorted(dg.through_pairs())

    def depth(pairs, a, b):
        return sum(1 for x, y in pairs if x < a and b < y)

    wl = 2 * (max((depth(tops, a, b) for a, b in tops), default=-1) + 1)
    wr = 2 * (max((depth(bots, a, b) for a, b in bots), default=-1) + 1)
    slanted = [t for t in thrus if t[0] != t[1]]
    mid = max(4, 2 + 2 * len(slanted))
    W = wl + mid + wr
    grid = [[" "] * W for _ in range(d)]

    def put(r, c, ch):
        if grid[r][c] == " ":
            grid[r][c] = ch

    maxd_t = max((depth(tops, a, b) for a, b in tops), default=0)
    maxd_b = max((depth(bots, a, b) for a, b in bots), default=0)
    for a, b in tops:
        x = 2 * (maxd_t - depth(tops, a, b))
        grid[a][x] = "."
        grid[b][x] = "'"
        for r in range(a + 1, b):
            put(r, x, "|")
        for c in range(x):
            grid[a][c] = "-"
            grid[b][c] = "-"
    for a, b in bots:
        x = W - 1 - 2 * (maxd_b - depth(bots, a, b))
        grid[a][x] = "."
        grid[b][x] = "'"
        for r in range(a + 1, b):
            put(r, x, "|")
        for c in range(x + 1, W):
            grid[a][c] = "-"
            grid[b][c] = "-"
    for a, b in thrus:
        if a == b:
            for c in range(W):
                put(a, c, "-")
        else:
            x = wl + 1 + 2 * slanted.index((a, b))
            lo, hi = min(a, b), max(a, b)
            for c in range(x):
                put(a, c, "-")
            for c in range(x + 1, W):
                put(b, c, "-")
            grid[lo][x] = "."
            grid[hi][x] = "'"
            for r in range(lo + 1, hi):
                put(r, x, "|")

    lines = []
    for r in range(d):
        lines.append(f"{r+1:>2} {''.join(grid[r])} {r+1}'")
    return "\n".join(lines)


def ascii_element(el: TLElement) -> str:
    """Multi-diagram rendering of a TL element with coefficients."""
    if el.is_zero():
        return "0"
    f = el.params.field
    parts = []
    for dg, c in sorted(el.coeffs.items(), key=lambda kv: kv[0].pairs):
        parts.append(f"coefficient {f.fmt(c)}:\n{ascii_diagram(dg)}")
    return "\n\n".join(parts)
