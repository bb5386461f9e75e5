"""Exact symbolic algebra for P(x)sin(Px) + Q(x)cos(Px).

P here is a *formal* symbol standing for pi: PiRat is a Laurent polynomial
in that symbol with rational coefficients, and no numeric value of pi ever
enters a symbolic computation.  Numerics happen only in pirat_eval_interval,
which evaluates a PiRat over a certified pi enclosure.

PiPoly is polynomials.Poly over PiRat.  The class of trig-polynomials
with PiPoly parts is closed under differentiation and admits exact
antiderivatives for p(x)sin(Px); endpoint evaluation over [0,1] uses the
formal rules sin(0)=sin(P)=0, cos(0)=1, cos(P)=-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

from .numbers import RationalInterval
from .polynomials import Poly

ScalarLike = Union[int, Fraction]


class PiRat:
    """Laurent polynomial in the formal pi symbol, exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, ScalarLike] | None = None):
        clean = {}
        if terms:
            for k, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(k)] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PiRat is immutable")

    @classmethod
    def from_rational(cls, r: ScalarLike) -> "PiRat":
        return cls({0: Fraction(r)})

    @classmethod
    def term(cls, coeff: ScalarLike, exponent: int = 0) -> "PiRat":
        return cls({exponent: Fraction(coeff)})

    def items(self):
        return sorted(self._terms.items())

    def coeff(self, exponent: int) -> Fraction:
        return self._terms.get(exponent, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def exponents(self) -> list[int]:
        return sorted(self._terms)

    def shift(self, k: int) -> "PiRat":
        """Multiply by the k-th power of the pi symbol."""
        return PiRat({e + k: c for e, c in self._terms.items()})

    def __add__(self, other) -> "PiRat":
        other = _as_pirat(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return PiRat(out)

    __radd__ = __add__

    def __neg__(self) -> "PiRat":
        return PiRat({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "PiRat":
        return self + (-_as_pirat(other))

    def __rsub__(self, other) -> "PiRat":
        return _as_pirat(other) - self

    def __mul__(self, other) -> "PiRat":
        if isinstance(other, (int, Fraction)):
            return PiRat({e: c * other for e, c in self._terms.items()})
        other = _as_pirat(other)
        out: dict[int, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return PiRat(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PiRat.from_rational(other)
        if not isinstance(other, PiRat):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if self.is_zero:
            return "PiRat(0)"
        parts = [f"{c}·Π^{e}" if e else f"{c}" for e, c in self.items()]
        return "PiRat(" + " + ".join(parts) + ")"


def _as_pirat(v) -> PiRat:
    if isinstance(v, PiRat):
        return v
    if isinstance(v, (int, Fraction)):
        return PiRat.from_rational(v)
    raise TypeError(f"cannot interpret {v!r} as PiRat")


PI_SYMBOL = PiRat.term(1, 1)


def pirat_substitute_pi2(L: PiRat, t: ScalarLike) -> Fraction:
    """Replace every even power 2k of the pi symbol by t**k, exactly.

    Only defined when all exponents are even; an odd exponent means L is
    not a polynomial in pi**2.
    """
    t = Fraction(t)
    out = Fraction(0)
    for e, c in L.items():
        if e % 2:
            raise ValueError(f"odd pi-exponent {e}: not a polynomial in pi^2")
        out += c * t ** (e // 2)
    return out


def pirat_eval_interval(L: PiRat, pi_iv: RationalInterval) -> RationalInterval:
    """Interval containing L(pi) for every pi in pi_iv.

    Horner's rule runs over the Laurent range, L = pi**e_min · Q(pi), in
    steps of pi**2 when all exponents share one parity (the witness case)
    and of pi otherwise.  Each step is rounded outward to the dyadic grid
    2**-bits: bits covers the width of pi_iv, plus bit_length(ceil|x|)
    guard bits per step (a rounding error is multiplied by at most |x| per
    later step) and 16 more.  A point pi_iv is evaluated exactly.
    """
    items = L.items()
    if not items:
        return RationalInterval(0)
    low, high = items[0][0], items[-1][0]
    step = 2 if all((e - low) % 2 == 0 for e, _ in items) else 1
    x = pi_iv.power(step)
    width = pi_iv.width
    bits = None
    if width:
        steps = (high - low) // step
        magnitude = max(abs(x.lo), abs(x.hi)).__ceil__()
        inverse = -(-width.denominator // width.numerator)
        bits = inverse.bit_length() + steps * magnitude.bit_length() + 16
    acc = RationalInterval(0)
    for e in range(high, low - 1, -step):
        acc = acc * x + L.coeff(e)
        if bits is not None:
            acc = acc.simplify(bits)
    acc = acc * pi_iv.power(low)
    return acc if bits is None else acc.simplify(bits)


class PiPoly(Poly):
    """Poly over PiRat: a dense polynomial in x whose coefficients are
    Laurent polynomials in the formal pi symbol.  Every ring operation is
    Poly's; only the coefficient ring differs."""

    __slots__ = ()
    _coerce = staticmethod(_as_pirat)

    @classmethod
    def from_poly(cls, p: Poly, scale: PiRat | None = None) -> "PiPoly":
        q = cls(p.coeffs)
        return q if scale is None else q.scale(scale)


@dataclass(frozen=True)
class TrigPoly:
    """sin_part(x)·sin(Px) + cos_part(x)·cos(Px), both parts PiPoly.

    No additive constant is carried: a definite integral does not depend
    on one, and no computation here produces one.
    """

    sin_part: PiPoly = field(default_factory=PiPoly)
    cos_part: PiPoly = field(default_factory=PiPoly)


def trig_derivative(T: TrigPoly) -> TrigPoly:
    """Product and chain rule on the trig-polynomial class:
    (P sin + Q cos)' = (P' - pi·Q) sin + (Q' + pi·P) cos."""
    p, q = T.sin_part, T.cos_part
    return TrigPoly(p.derivative() - q.scale(PI_SYMBOL),
                    q.derivative() + p.scale(PI_SYMBOL))


def antiderivative_p_sin(p: PiPoly | Poly) -> TrigPoly:
    """Exact antiderivative of p(x)·sin(Px), by repeated integration by parts.

    Closed form: sin-part p'/pi^2 - p'''/pi^4 + ..., cos-part
    -p/pi + p''/pi^3 - ...; the construction is verified symbolically by
    differentiating the result.  pi_witness does not build it: it reads
    the integral off the Niven endpoint-derivative tables, and this full
    antiderivative, with definite_01, is the reference that route is
    tested against.
    """
    if not isinstance(p, PiPoly):
        p = PiPoly.from_poly(p)
    sin_part = PiPoly()
    cos_part = PiPoly()
    d = p
    j = 0
    while not d.is_zero:
        exponent = -(j + 1)
        half = j // 2
        if j % 2 == 0:
            sign = -1 if half % 2 == 0 else 1  # -, +, -, ... on cos side
            cos_part = cos_part + d.scale(PiRat.term(sign, exponent))
        else:
            sign = 1 if half % 2 == 0 else -1  # +, -, +, ... on sin side
            sin_part = sin_part + d.scale(PiRat.term(sign, exponent))
        d = d.derivative()
        j += 1
    T = TrigPoly(sin_part, cos_part)
    check = trig_derivative(T)
    if check.sin_part != p or not check.cos_part.is_zero:
        raise AssertionError("antiderivative failed symbolic verification")
    return T


def definite_01(T: TrigPoly) -> PiRat:
    """T(1) - T(0) under sin(0)=sin(P)=0, cos(0)=1, cos(P)=-1.

    Sin terms vanish at both ends, so the value is
    -cos_part(1) - cos_part(0)."""
    q = T.cos_part
    return -(q(1) + q(0))
