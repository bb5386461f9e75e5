"""Exact rationals and rational-endpoint interval arithmetic.

Integers are plain Python ints, rationals are fractions.Fraction (always
normalized, positive denominator).  RationalInterval adds outward-rounded
interval arithmetic on top: every operation returns an interval that
contains the exact image of its inputs, never a tighter one.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from os.path import commonprefix
from typing import Union

RationalLike = Union[int, Fraction]


class IntervalDomainError(ValueError):
    """Raised for operations outside an interval's domain (e.g. 1/[−1,1])."""


def _frac(v: RationalLike) -> Fraction:
    if isinstance(v, float):
        raise TypeError("floats are not allowed; pass int or Fraction")
    return Fraction(v)


class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints.

    All arithmetic is containment-sound: the result interval contains
    {x o y : x in X, y in Y}.  Endpoints may be widened (never narrowed)
    by simplify() to keep denominators bounded.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RationalLike, hi: RationalLike | None = None):
        lo = _frac(lo)
        hi = lo if hi is None else _frac(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("RationalInterval is immutable")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, v: RationalLike) -> bool:
        v = _frac(v)
        return self.lo <= v <= self.hi

    def is_subset_of(self, other: "RationalInterval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def strictly_inside(self, lo: RationalLike, hi: RationalLike) -> bool:
        """True when the whole interval lies in the open interval (lo, hi)."""
        return _frac(lo) < self.lo and self.hi < _frac(hi)

    def intersect(self, other: "RationalInterval") -> "RationalInterval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise IntervalDomainError("intervals do not intersect")
        return RationalInterval(lo, hi)

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "RationalInterval":
        if isinstance(other, RationalInterval):
            return other
        return RationalInterval(_frac(other))

    def __add__(self, other) -> "RationalInterval":
        other = self._coerce(other)
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo)

    def __sub__(self, other) -> "RationalInterval":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalInterval":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalInterval":
        other = self._coerce(other)
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return RationalInterval(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalInterval":
        if self.lo <= 0 <= self.hi:
            raise IntervalDomainError("division by interval containing zero")
        return RationalInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "RationalInterval":
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "RationalInterval":
        return self._coerce(other) * self.reciprocal()

    def power(self, k: int) -> "RationalInterval":
        """Dependency-aware k-th power: [−1,1]^2 = [0,1], not [−1,1]."""
        if k == 0:
            return RationalInterval(1)
        if k < 0:
            return self.power(-k).reciprocal()
        if self.lo >= 0:
            return RationalInterval(self.lo ** k, self.hi ** k)
        if self.hi <= 0:
            if k % 2 == 0:
                return RationalInterval(self.hi ** k, self.lo ** k)
            return RationalInterval(self.lo ** k, self.hi ** k)
        # straddles zero
        if k % 2 == 0:
            return RationalInterval(0, max(-self.lo, self.hi) ** k)
        return RationalInterval(self.lo ** k, self.hi ** k)

    def simplify(self, bits: int) -> "RationalInterval":
        """Round outward to the dyadic grid with denominator 2**bits.

        Keeps denominators bounded in iterative algorithms; containment is
        preserved because rounding is always outward.
        """
        if self.lo.denominator.bit_length() <= bits + 1 and \
           self.hi.denominator.bit_length() <= bits + 1:
            return self
        scale = 1 << bits
        lo = Fraction((self.lo * scale).__floor__(), scale)
        hi = Fraction(-((-self.hi * scale).__floor__()), scale)
        return RationalInterval(lo, hi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"RationalInterval({self.lo}, {self.hi})"


def _sqrt_lower(r: Fraction, precision: int) -> Fraction:
    # isqrt gives the exact integer square root, so s^2 <= num*den*4^p
    # and (s / (den*2^p))^2 <= r.
    s = isqrt(r.numerator * r.denominator << (2 * precision))
    return Fraction(s, r.denominator << precision)


def _sqrt_upper(r: Fraction, precision: int) -> Fraction:
    target = r.numerator * r.denominator << (2 * precision)
    s = isqrt(target)
    if s * s < target:
        s += 1
    return Fraction(s, r.denominator << precision)


def iv_sqrt(x: RationalInterval, precision: int) -> RationalInterval:
    """Interval square root with outward rounding at ~2**-precision.

    Both endpoint roots are bracketed on the grid seeded by the integer
    square root; the result contains sqrt(v) for every v in x.
    """
    if precision < 1:
        raise ValueError("precision must be a positive integer")
    if x.lo < 0:
        raise IntervalDomainError("square root of interval with negative part")
    return RationalInterval(_sqrt_lower(x.lo, precision),
                            _sqrt_upper(x.hi, precision))


def _zero_padded(n: int, width: int) -> str:
    """n written with exactly `width` decimal digits.  Wide numbers are
    written in halves, so no single int->str conversion meets Python's
    digit limit."""
    if width <= 4000:
        return f"{n:0{width}d}"
    high, low = divmod(n, 10 ** (width // 2))
    return _zero_padded(high, width - width // 2) + _zero_padded(low, width // 2)


def to_decimal(x: RationalInterval, max_digits: int) -> str:
    """Render only decimal digits certified by the enclosure.

    Emits the longest common prefix of the decimal expansions of lo and hi,
    truncated toward zero, at most max_digits fractional digits.  A trailing
    ellipsis marks any value not exactly equal to the printed digits (this
    includes exact rationals whose expansion was truncated).

    Each endpoint is floored once at scale 10**max_digits; the printed
    fraction digits are the common prefix of the two floors' digit strings.
    Trailing zeros are dropped, with no ellipsis, only when lo = hi is a
    terminating decimal of at most max_digits digits.
    """
    if max_digits < 1:
        raise ValueError("max_digits must be >= 1")
    lo, hi = x.lo, x.hi
    if hi <= 0 and lo < 0:
        return "-" + to_decimal(RationalInterval(-hi, -lo), max_digits)
    if lo < 0 < hi:
        return "…"
    scale = 10 ** max_digits
    ilo, flo = divmod((lo * scale).__floor__(), scale)
    ihi, fhi = divmod((hi * scale).__floor__(), scale)
    if ilo != ihi:
        return "…"
    digits = commonprefix([_zero_padded(flo, max_digits),
                           _zero_padded(fhi, max_digits)])
    if lo == hi and (lo * scale).denominator == 1:
        return f"{ilo}.{digits.rstrip('0')}".rstrip(".")
    return f"{ilo}.{digits}…" if digits else f"{ilo}…"
