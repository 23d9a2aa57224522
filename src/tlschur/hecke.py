"""Iwahori-Hecke algebra of the symmetric group in the normalized basis.

Parameters are a field and an invertible scalar u; the quadratic parameter
is q = u^(-2) and the associated loop scalar is delta = -u - u^(-1).  The
basis elements Tw are indexed by permutations and multiply by

    Tw * Ts = T(ws)                          if length(ws) = length(w) + 1
    Tw * Ts = (u - u^(-1)) Tw + T(ws)        otherwise

so each generator satisfies (Ts - u)(Ts + u^(-1)) = 0.  At u = 1 this is
the group algebra of the symmetric group.

The homomorphism onto the Temperley-Lieb algebra TL_d(delta) sends
Ts -> U_s + u; its kernel is generated by the two-sided ideal elements
kernel_generator(params, i), which vanish identically when d = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import GF2, GF5
from .permutations import Permutation
from .tl import TLElement, TLParams


@dataclass(frozen=True)
class HeckeParams:
    """Degree d and normalization unit u over a coefficient field."""

    d: int
    field: object
    u: object

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("degree must be positive")
        u = self.field.coerce(self.u)
        if u == self.field.zero:
            raise ValueError("u must be invertible")
        object.__setattr__(self, "u", u)

    @property
    def u_inv(self):
        return self.field.inv(self.u)

    @property
    def q(self):
        """Quadratic parameter q = u^(-2)."""
        ui = self.u_inv
        return self.field.mul(ui, ui)

    @property
    def quantum_char_is_2(self) -> bool:
        """Whether 1 + q = 0 in the field, the regime of the finite dominant dimensions."""
        f = self.field
        return f.add(f.one, self.q) == f.zero

    @property
    def delta(self):
        """Loop parameter -u - u^(-1) of the image Temperley-Lieb algebra."""
        f = self.field
        return f.neg(f.add(self.u, self.u_inv))

    def tl_params(self) -> TLParams:
        return TLParams(self.d, self.delta, self.field)


def classical_char2(d: int) -> HeckeParams:
    """u = 1 over GF(2): the symmetric group algebra in characteristic 2."""
    return HeckeParams(d, GF2, 1)


def quantum_ell2(d: int) -> HeckeParams:
    """u = 2 over GF(5): q = u^(-2) = 4 = -1, so 1 + q = 0 in odd characteristic."""
    return HeckeParams(d, GF5, 2)


# The two blessed configurations exercised throughout the oracle suite.
BLESSED_CONFIGS = {
    "gf2-u1": classical_char2,
    "gf5-u2": quantum_ell2,
}


class HeckeElement:
    """Linear combination of basis elements Tw."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: HeckeParams, coeffs: dict | None = None):
        self.params = params
        clean = {}
        if coeffs:
            for w, c in coeffs.items():
                c = params.field.coerce(c)
                if c != params.field.zero:
                    clean[w] = c
        self.coeffs = clean

    @staticmethod
    def zero(params: HeckeParams) -> "HeckeElement":
        return HeckeElement(params, {})

    @staticmethod
    def one(params: HeckeParams) -> "HeckeElement":
        return HeckeElement(params, {Permutation.identity(params.d): params.field.one})

    @staticmethod
    def basis(params: HeckeParams, w: Permutation) -> "HeckeElement":
        return HeckeElement(params, {w: params.field.one})

    @staticmethod
    def generator(params: HeckeParams, i: int) -> "HeckeElement":
        return HeckeElement.basis(params, Permutation.transposition(params.d, i))

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.params != other.params:
            raise ValueError(f"elements over different parameters: {self.params} and {other.params}")
        f = self.params.field
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = f.add(out.get(w, f.zero), c)
        return HeckeElement(self.params, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        f = self.params.field
        return self + other.scale(f.neg(f.one))

    def scale(self, c) -> "HeckeElement":
        f = self.params.field
        c = f.coerce(c)
        return HeckeElement(self.params, {w: f.mul(v, c) for w, v in self.coeffs.items()})

    def multiply_by_generator(self, i: int) -> "HeckeElement":
        """Right multiplication by the generator T_{s_i}."""
        p = self.params
        f = p.field
        s = Permutation.transposition(p.d, i)
        shift = f.sub(p.u, p.u_inv)
        out: dict = {}

        def acc(w, c):
            if c != f.zero:
                out[w] = f.add(out.get(w, f.zero), c)

        for w, c in self.coeffs.items():
            ws = w * s
            if w.images.index(i) < w.images.index(i + 1):
                acc(ws, c)
            else:
                acc(w, f.mul(c, shift))
                acc(ws, c)
        return HeckeElement(p, out)

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        if self.params != other.params:
            raise ValueError(f"elements over different parameters: {self.params} and {other.params}")
        p = self.params
        f = p.field
        out = HeckeElement.zero(p)
        for w, c in other.coeffs.items():
            term = self.scale(c)
            for i in w.reduced_word():
                term = term.multiply_by_generator(i)
            out = out + term
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElement)
            and self.params == other.params
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "HeckeElement(0)"
        f = self.params.field
        bits = [
            f"{f.fmt(c)}*T{w.images}"
            for w, c in sorted(self.coeffs.items(), key=lambda kv: kv[0].images)
        ]
        return "HeckeElement(" + " + ".join(bits) + ")"


@lru_cache(maxsize=1 << 12)
def _phi_word(tlp: TLParams, u, word: tuple[int, ...]) -> TLElement:
    """phi(T_w) for a reduced word of w: phi of the word without its last letter s, times U_s + u."""
    if not word:
        return TLElement.one(tlp)
    return _phi_word(tlp, u, word[:-1]) * (TLElement.generator(tlp, word[-1]) + TLElement.one(tlp).scale(u))


def phi(x: HeckeElement) -> TLElement:
    """The surjection onto TL_d(delta) determined by T_{s_i} -> U_i + u, cached along reduced words."""
    tlp = x.params.tl_params()
    out = TLElement.zero(tlp)
    for w, c in x.coeffs.items():
        out = out + _phi_word(tlp, x.params.u, w.reduced_word()).scale(c)
    return out


def kernel_generator(params: HeckeParams, i: int) -> HeckeElement:
    """Generator x_i of the kernel of phi, supported on the parabolic of {s_i, s_{i+1}}.

    x_i = T_i T_{i+1} T_i - u T_i T_{i+1} - u T_{i+1} T_i + u^2 T_i + u^2 T_{i+1} - u^3.
    Requires d >= 3; for d = 2 the map phi is an isomorphism and there is
    nothing to generate.
    """
    d = params.d
    if d < 3:
        raise ValueError("kernel generators need d >= 3")
    if not 1 <= i <= d - 2:
        raise ValueError(f"kernel generator index {i} out of range 1..{d-2}")
    f = params.field
    u = params.u
    u2 = f.mul(u, u)
    u3 = f.mul(u2, u)
    ti = HeckeElement.generator(params, i)
    tj = HeckeElement.generator(params, i + 1)
    one = HeckeElement.one(params)
    return (
        ti * tj * ti
        - (ti * tj).scale(u)
        - (tj * ti).scale(u)
        + ti.scale(u2)
        + tj.scale(u2)
        - one.scale(u3)
    )
