"""Coefficient fields for exact arithmetic.

Two kinds of field are supported: prime fields GF(p) whose elements are
canonical residues 0..p-1 (plain ints), and the rationals whose elements
are ``fractions.Fraction`` in lowest terms.  A field object bundles the
arithmetic so that matrices and algebra elements can hold raw canonical
values without per-element wrappers.  The rationals are scalars only: they
serve TLElement and HeckeElement, while exact matrices (tlschur.linalg) and
the oracle built on them take GF(p) alone.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class GF:
    """Prime field GF(p).  Elements are ints reduced to 0..p-1."""

    kind = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"field order must be prime, got {p}")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1

    def coerce(self, x) -> int:
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} not invertible mod {self.p}")
            return (x.numerator * self.inv(x.denominator % self.p)) % self.p
        return int(x) % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def parse(self, s: str) -> int:
        return self.coerce(Fraction(s.strip()))

    def fmt(self, a) -> str:
        return str(a)

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


class RationalField:
    """The field of rationals.  Elements are Fractions in lowest terms."""

    kind = "rational"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)
    p = 0

    def coerce(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def parse(self, s: str) -> Fraction:
        return Fraction(s.strip())

    def fmt(self, a) -> str:
        return str(a)

    def random(self, rng) -> Fraction:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))

    @property
    def name(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return self.name


GF2 = GF(2)
GF5 = GF(5)
QQ = RationalField()


def field_by_name(name: str):
    """Parse a field name such as 'q', 'QQ', 'gf2' or 'GF(7)'."""
    s = name.strip().lower()
    if s in ("q", "qq", "rational", "rationals"):
        return QQ
    if s.startswith("gf(") and s.endswith(")"):
        return GF(int(s[3:-1]))
    if s.startswith("gf"):
        return GF(int(s[2:]))
    raise ValueError(f"unknown field {name!r}")
