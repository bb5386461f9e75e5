"""Rigorous enclosures of exp, sin, cos and e via tail-bounded partial sums.

All enclosures have exact rational endpoints.  "precision_digits" means the
final interval width is below 10**-digits; internally one guard factor of 2
is applied to the tail bound.  There is no argument reduction for sin/cos
(that would need pi itself), so their domain is capped at |x| <= 8.

Each series is summed by one routine: sum_{k<=n} n!/k! by the integer
recurrence of `e_partial_sum` (for `e_enclosure` and the e certificate),
sin and cos by `_taylor_enclosure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import factorial
from .numbers import RationalInterval


@dataclass(frozen=True)
class Enclosure:
    """A certified interval for a real value plus how it was obtained."""

    value: RationalInterval
    terms_used: int
    tail_bound: Fraction


def e_partial_sum(n: int) -> tuple[int, int]:
    """(n!, S_n) with S_n = sum_{k<=n} n!/k!, by the integer recurrence
    S_0 = 1, S_j = j·S_(j-1) + 1; S_n/n! is the partial sum of e."""
    if n < 0:
        raise ValueError("n must be >= 0")
    fact, s = 1, 1
    for j in range(1, n + 1):
        fact *= j
        s = s * j + 1
    return fact, s


def e_enclosure(precision_digits: int) -> Enclosure:
    """Enclosure of e from the partial sum S_n/n! of 1/k! plus the geometric
    tail bound e - S_n/n! < 1/(n! n), for the least n >= 1 with
    1/(n! n) < 10**-precision_digits / 2."""
    if precision_digits < 1:
        raise ValueError("precision_digits must be >= 1")
    bound = 2 * 10 ** precision_digits
    n, fact = 1, 1
    while fact * n <= bound:
        n += 1
        fact *= n
    fact, s = e_partial_sum(n)
    partial = Fraction(s, fact)
    tail = Fraction(1, fact * n)
    return Enclosure(RationalInterval(partial, partial + tail), n + 1, tail)


def e_tail_enclosure(n: int) -> RationalInterval:
    """Enclosure of n!·(e - S_n/n!) = sum_{j>=1} 1/((n+1)···(n+j)), n >= 1.

    Terms are added until the next one, t, falls below 2**-64 of the sum;
    that term and the rest lie in [t, t·(n+j+1)/(n+j)], since each further
    ratio is at most 1/(n+j+1).  No enclosure of e is involved.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    partial, term, j = Fraction(0), Fraction(1, n + 1), 1
    while term >= partial / 2 ** 64:
        partial += term
        j += 1
        term /= n + j
    return RationalInterval(partial + term,
                            partial + term * (n + j + 1) / (n + j))


def exp_enclosure(x: Fraction, precision_digits: int) -> Enclosure:
    """Enclosure of e**x for rational 0 < x <= 1.

    The tail from term n+1 is bounded by the geometric estimate
    x^(n+1)/(n+1)! * (n+2)/(n+2-x), valid because successive term ratios
    are at most x/(n+2).
    """
    x = Fraction(x)
    if not 0 < x <= 1:
        raise ValueError("exp_enclosure requires 0 < x <= 1")
    if precision_digits < 1:
        raise ValueError("precision_digits must be >= 1")
    target = Fraction(1, 2 * 10 ** precision_digits)
    partial = Fraction(1)
    term = Fraction(1)
    n = 0
    while True:
        tail = term * x / (n + 1) / (1 - x / (n + 2))
        if tail < target:
            break
        n += 1
        term = term * x / n
        partial += term
    return Enclosure(RationalInterval(partial, partial + tail), n + 1, tail)


def _taylor_enclosure(x: Fraction, precision_digits: int, parity: int,
                      name: str) -> Enclosure:
    """Enclosure of sum_k (-1)^k x^(2k+parity)/(2k+parity)!: sin for parity 1,
    cos for parity 0, rational |x| <= 8.

    Terms are summed until the first omitted one is both part of the
    strictly decreasing run (x^2 < (2k+parity+1)(2k+parity+2)) and below
    10**-precision_digits / 2; the sum is then enclosed by +- that term.
    """
    x = Fraction(x)
    if abs(x) > 8:
        raise ValueError(f"{name} requires |x| <= 8")
    if precision_digits < 1:
        raise ValueError("precision_digits must be >= 1")
    target = Fraction(1, 2 * 10 ** precision_digits)
    x2 = x * x
    partial, term, k = Fraction(0), x ** parity, 0
    while (abs(term) >= target
           or x2 >= (2 * k + parity + 1) * (2 * k + parity + 2)):
        partial += term
        k += 1
        term = -term * x2 / ((2 * k + parity - 1) * (2 * k + parity))
    t = abs(term)
    return Enclosure(RationalInterval(partial - t, partial + t), k, t)


def sin_enclosure(x: Fraction, precision_digits: int) -> Enclosure:
    """Alternating Taylor enclosure of sin(x) for rational |x| <= 8: the
    odd-parity case of `_taylor_enclosure`."""
    return _taylor_enclosure(x, precision_digits, 1, "sin_enclosure")


def cos_enclosure(x: Fraction, precision_digits: int) -> Enclosure:
    """Alternating Taylor enclosure of cos(x) for rational |x| <= 8: the
    even-parity case of `_taylor_enclosure`."""
    return _taylor_enclosure(x, precision_digits, 0, "cos_enclosure")


@dataclass(frozen=True)
class SandwichReport:
    """Exact comparison of (1+x/n)^n against the truncated exponential sum."""

    x: Fraction
    n: int
    lhs: Fraction  # (1+x/n)^n
    rhs: Fraction  # sum_{k<=n} x^k/k!
    strict: bool


def sandwich_check(x: Fraction, n: int) -> SandwichReport:
    """Evaluate (1+x/n)^n < sum_{k=0}^n x^k/k! exactly.

    Strict for n >= 2; at n = 1 both sides equal 1+x, reported as
    strict=False.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = (1 + x / n) ** n
    rhs = sum((x ** k / factorial(k) for k in range(n + 1)), Fraction(0))
    return SandwichReport(x, n, lhs, rhs, lhs < rhs)


@dataclass(frozen=True)
class SqueezeReport:
    """Certified status of the small-angle inequality chains at one h."""

    h: Fraction
    status: str  # "certified" | "insufficient-precision" | "failed"
    sin_over_h: RationalInterval
    one_minus_cos_over_h: RationalInterval
    cos: RationalInterval

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def squeeze_check(h: Fraction, precision_digits: int) -> SqueezeReport:
    """Verify cos(h) < sin(h)/h < 1 and 0 <= (1-cos h)/h <= h/2.

    Uses certified enclosures; an undecidable comparison means the
    requested precision was too low, not a counterexample.
    """
    h = Fraction(h)
    if not 0 < h <= Fraction(3, 2):
        raise ValueError("squeeze_check requires 0 < h <= 3/2")
    sin_iv = sin_enclosure(h, precision_digits).value
    cos_iv = cos_enclosure(h, precision_digits).value
    ratio = sin_iv / RationalInterval(h)
    omc = (1 - cos_iv) / RationalInterval(h)

    chain1_certified = cos_iv.hi < ratio.lo and ratio.hi < 1
    chain1_possible = cos_iv.lo < ratio.hi and ratio.lo < 1
    chain2_certified = omc.lo >= 0 and omc.hi <= h / 2
    chain2_possible = omc.hi >= 0 and omc.lo <= h / 2

    if chain1_certified and chain2_certified:
        status = "certified"
    elif chain1_possible and chain2_possible:
        status = "insufficient-precision"
    else:
        status = "failed"
    return SqueezeReport(h, status, ratio, omc, cos_iv)


def e_sandwich_enclosure(m: int) -> RationalInterval:
    """Independent enclosure of e from the monotone school sequences:
    (1+1/m)^m < e < (1+1/m)^(m+1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    base = 1 + Fraction(1, m)
    lo = base ** m
    return RationalInterval(lo, lo * base)
