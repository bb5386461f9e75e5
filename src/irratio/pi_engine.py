"""Certified pi enclosures by three independent routes, plus continued fractions.

The default route is Machin's formula pi/4 = 4·arctan(1/5) - arctan(1/239),
summed in integer fixed point with a proven bound on every floor and on the
alternating tail (Brent, JACM 1976).  Two cross-check routes are kept: one
brackets the smallest positive zero of cos by bisection with certified
cosine enclosures and doubles it; the other runs the classical polygon
doubling (harmonic then geometric mean of semiperimeters) starting from the
hexagon, using only interval square roots.  The routes share no code beyond
rational arithmetic, so their agreement is a real check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .numbers import RationalInterval, iv_sqrt
from .series import cos_enclosure


class PrecisionExhausted(RuntimeError):
    """Raised when a certified computation hits its precision cap."""


# Most digits pi_enclosure accepts by each cross-check route.  The polygon
# doubling costs about d**2.4 and the cos-root bisection d**4 or more: each
# limit is a few seconds of work, where the 4096-digit cap would be hours.
ROUTE_MAX_DIGITS = {"archimedes": 300, "cos-root": 120}


def _check_route_limit(method: str, precision_digits: int) -> None:
    if precision_digits > ROUTE_MAX_DIGITS[method]:
        raise PrecisionExhausted(
            f"method {method} is limited to {ROUTE_MAX_DIGITS[method]} "
            f"digits, {precision_digits} requested")


@dataclass(frozen=True)
class PiEnclosure:
    value: RationalInterval
    method: str  # "machin" | "cos-root" | "archimedes"
    effort: int  # series terms, bisection steps or doublings


def _cos_sign(x: Fraction, start_digits: int, max_digits: int) -> int:
    """Certified sign of cos(x), raising enclosure precision as needed."""
    digits = max(start_digits, 4)
    while digits <= max_digits:
        iv = cos_enclosure(x, digits).value
        if iv.lo > 0:
            return 1
        if iv.hi < 0:
            return -1
        digits *= 2
    raise PrecisionExhausted(f"cannot separate sign of cos({x})")


def pi_by_cos_root(precision_digits: int) -> PiEnclosure:
    """pi as twice the smallest positive zero of cos, bracketed by bisection.

    The bracket [lo, hi] keeps cos(lo) > 0 > cos(hi); midpoints are dyadic
    so enclosure arguments stay cheap.  The final doubled bracket has width
    below 10**-precision_digits / 4 (guard for downstream decimal use).
    """
    if precision_digits < 1:
        raise ValueError("precision_digits must be >= 1")
    lo, hi = Fraction(1), Fraction(2)
    target = Fraction(1, 8 * 10 ** precision_digits)  # per-side bracket width
    max_digits = 8 * precision_digits + 64
    steps = 0
    while hi - lo >= target:
        mid = (lo + hi) / 2
        # needed resolution tracks the bracket width
        need = len(str((1 / (hi - lo)).__ceil__())) + 6
        if _cos_sign(mid, need, max_digits) > 0:
            lo = mid
        else:
            hi = mid
        steps += 1
    return PiEnclosure(RationalInterval(2 * lo, 2 * hi), "cos-root", steps)


def _polygon_doublings(bits: int):
    """Inscribed and circumscribed semiperimeter intervals of the
    6·2**k-gon for k = 0, 1, 2, ...; square roots are outward-rounded at
    2**-bits and every value is kept on the grid 2**-(4·bits)."""
    # the hexagon: inscribed semiperimeter 3, circumscribed 2*sqrt(3)
    b, a = RationalInterval(3), 2 * iv_sqrt(RationalInterval(3), bits)
    while True:
        yield b, a
        a = (2 * a * b / (a + b)).simplify(4 * bits)
        b = iv_sqrt(b * a, bits).simplify(4 * bits)


def archimedes_table(doublings: int,
                     precision_digits: int | None = None) -> list[PiEnclosure]:
    """Semiperimeter bounds for the 6*2**k-gon on the unit circle, for
    k = 0..doublings, from one run of the polygon doubling.

    Each doubling replaces the circumscribed value by the harmonic mean and
    the inscribed one by the geometric mean, with outward-rounded square
    roots, so every row [inscribed.lo, circumscribed.hi] contains pi.
    Above ROUTE_MAX_DIGITS["archimedes"] digits, the limit of the polygon
    route of pi_enclosure, PrecisionExhausted is raised before the first
    square root.
    """
    if not 0 <= doublings <= 60:
        raise ValueError("doublings must be between 0 and 60")
    if precision_digits is None:
        precision_digits = doublings + 12
    if precision_digits < 1:
        raise ValueError("precision_digits must be >= 1")
    _check_route_limit("archimedes", precision_digits)
    bits = 333 * precision_digits // 100 + 16
    rows = islice(_polygon_doublings(bits), doublings + 1)
    return [PiEnclosure(RationalInterval(b.lo, a.hi), "archimedes", k)
            for k, (b, a) in enumerate(rows)]


def archimedes_bounds(doublings: int, precision_digits: int | None = None) -> PiEnclosure:
    """The last row of archimedes_table: the 6*2**doublings-gon."""
    return archimedes_table(doublings, precision_digits)[-1]


def _arctan_inv_fixed(x: int, p: int) -> tuple[int, int]:
    """Floored alternating sum S of arctan(1/x)·2**p, and its term count K.

    Term k is floor(2**p / (x**(2k+1)·(2k+1))), exact because nested floor
    divisions by integers compose: floor(floor(u/v)/w) = floor(u/(v·w)).
    Each term loses less than one unit, and the sum stops once the power
    reaches 0, where the alternating tail is below one unit; so
    arctan(1/x)·2**p lies in [S - K - 1, S + K + 1].
    """
    power = (1 << p) // x
    x2 = x * x
    total = 0
    k = 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= x2
        k += 1
    return total, k


def _pi_by_machin(precision_digits: int) -> PiEnclosure:
    """pi = 16·arctan(1/5) - 4·arctan(1/239) on the grid 2**-p.

    The width is 32·(K5+1) + 8·(K239+1) units of 2**-p.  With K5 + K239 < p/3
    terms that is below 11·p + 40 units, fewer than bit_length(d) + 16 bits,
    and p exceeds log2(10)·d by at least 2·bit_length(d) + 16 bits.
    """
    d = precision_digits
    p = -(-333 * d // 100) + 2 * d.bit_length() + 16
    s5, k5 = _arctan_inv_fixed(5, p)
    s239, k239 = _arctan_inv_fixed(239, p)
    lo = 16 * (s5 - k5 - 1) - 4 * (s239 + k239 + 1)
    hi = 16 * (s5 + k5 + 1) - 4 * (s239 - k239 - 1)
    scale = 1 << p
    return PiEnclosure(RationalInterval(Fraction(lo, scale), Fraction(hi, scale)),
                       "machin", k5 + k239)


def pi_enclosure(precision_digits: int, method: str = "machin") -> PiEnclosure:
    """pi to width < 10**-precision_digits by the requested method.

    Machin's formula in fixed point is the default: one pass, no retries.
    The cos-root bisection and the polygon doubling are kept as
    independent cross-check routes.  The polygon route is one pass too: a
    doubling divides the gap between the bounds by about 4 but multiplies
    the rounding noise by about 2.45, so the square roots run at
    ceil(5.5·d) + 48 bits, fixed up front, and doubling goes on until the
    width is below 10**-d.  Should the width stop shrinking first,
    PrecisionExhausted is raised.

    The two cross-check routes grow steeply with d, so each accepts at most
    ROUTE_MAX_DIGITS[method] digits (a few seconds of work) and raises
    PrecisionExhausted above it, before its first cosine or square root.
    """
    if precision_digits < 1:
        raise ValueError("precision_digits must be >= 1")
    if method == "machin":
        return _pi_by_machin(precision_digits)
    if method not in ROUTE_MAX_DIGITS:
        raise ValueError(f"unknown method {method!r}")
    _check_route_limit(method, precision_digits)
    if method == "cos-root":
        return pi_by_cos_root(precision_digits)
    target = Fraction(1, 10 ** precision_digits)
    bits = -(-11 * precision_digits // 2) + 48
    width = None
    for doublings, (b, a) in enumerate(_polygon_doublings(bits)):
        iv = RationalInterval(b.lo, a.hi)
        if iv.width < target:
            return PiEnclosure(iv, "archimedes", doublings)
        if width is not None and iv.width >= width:
            raise PrecisionExhausted(
                f"polygon doubling at {bits} bits stopped narrowing after "
                f"{doublings} doublings, above 10**-{precision_digits}")
        width = iv.width


def rhind_value() -> Fraction:
    """The ancient Egyptian circle constant (16/9)**2 = 256/81."""
    return Fraction(16, 9) ** 2


@dataclass(frozen=True)
class CFExpansion:
    partial_quotients: list[int]
    convergents: list[Fraction]
    certified_depth: int


def _convergents(quotients: list[int]) -> list[Fraction]:
    out = []
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for a in quotients:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append(Fraction(p, q))
    return out


def continued_fraction(x: RationalInterval, max_depth: int) -> CFExpansion:
    """Partial quotients certified common to every real in x.

    The Gauss map x -> 1/(x - floor x) runs on both endpoints at once, on
    their integer numerators and denominators, and stops at the first
    quotient on which they disagree, or once an endpoint hits an integer:
    the next quotient is then unbounded on one side.  No quotient is ever
    guessed.  For a point interval this is the Euclidean expansion of the
    rational.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    quotients: list[int] = []
    p, q = x.lo.numerator, x.lo.denominator  # lo = p/q, hi = r/s
    r, s = x.hi.numerator, x.hi.denominator
    while len(quotients) < max_depth and q and s:
        a = p // q
        if a != r // s:
            break
        quotients.append(a)
        # 1/(x - a) reverses the order: the new lo is 1/(hi - a)
        p, q, r, s = s, r - a * s, q, p - a * q
    return CFExpansion(quotients, _convergents(quotients), len(quotients))
