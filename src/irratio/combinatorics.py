"""Factorials, binomial coefficients, Pascal's triangle and related tools.

Binomial coefficients are computed by the factorial closed form, whose
integrality is checked rather than assumed, and cross-asserted against the
standard library's math.comb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of negative integer")
    return math.factorial(n)


@dataclass(frozen=True)
class PascalTriangle:
    rows: list[list[int]]

    def row(self, n: int) -> list[int]:
        return self.rows[n]


def pascal_rows(m: int) -> PascalTriangle:
    """Rows 0..m of Pascal's triangle, built purely by the additive recursion."""
    if m < 0:
        raise ValueError("m must be non-negative")
    rows = [[1]]
    for n in range(1, m + 1):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return PascalTriangle(rows)


def binomial(n: int, k: int) -> int:
    """C(n, k) via the closed form, cross-checked against math.comb."""
    if k < 0 or n < 0:
        raise ValueError("n and k must be non-negative")
    if k > n:
        raise ValueError(f"binomial requires k <= n, got k={k}, n={n}")
    closed = factorial(n) // (factorial(n - k) * factorial(k))
    if closed * factorial(n - k) * factorial(k) != factorial(n):
        raise AssertionError("closed-form binomial is not an integer")
    if closed != math.comb(n, k):
        raise AssertionError("closed form and math.comb disagree")
    return closed


def binomial_expand(a: Fraction, b: Fraction, n: int) -> Fraction:
    """(a+b)^n by the binomial sum, asserted equal to the direct power."""
    if n < 0:
        raise ValueError("n must be non-negative")
    a, b = Fraction(a), Fraction(b)
    total = sum((binomial(n, k) * a ** (n - k) * b ** k for k in range(n + 1)),
                Fraction(0))
    if total != (a + b) ** n:
        raise AssertionError("binomial expansion disagrees with direct power")
    return total


def dominance_index(a: Fraction, c: Fraction) -> int:
    """Minimal n >= 1 with c * a**n < n!.

    Terminates because a**n/n! is a null sequence for any fixed base a.
    """
    a, c = Fraction(a), Fraction(c)
    if a <= 0 or c <= 0:
        raise ValueError("a and c must be positive")
    n = 1
    power = a
    fact = 1
    while c * power >= fact:
        n += 1
        power *= a
        fact *= n
    return n


@dataclass(frozen=True)
class SqrtRationality:
    """Outcome of the rational-square test for sqrt(m).

    root is the exact integer root when m is a perfect square, else None:
    a rational square root of an integer must itself be an integer, so a
    non-square m certifies sqrt(m) irrational.
    """

    m: int
    root: int | None

    @property
    def is_perfect_square(self) -> bool:
        return self.root is not None

    @property
    def is_irrational(self) -> bool:
        return self.root is None


def sqrt_rationality(m: int) -> SqrtRationality:
    if m < 1:
        raise ValueError("m must be a positive integer")
    r = math.isqrt(m)
    return SqrtRationality(m, r if r * r == m else None)


def growth_table(max_n: int) -> list[tuple[int, int, int, int, int]]:
    """Rows (n, n^2, n^3, 2^n, n!) comparing polynomial, exponential and
    factorial growth."""
    return [(n, n * n, n ** 3, 2 ** n, factorial(n)) for n in range(max_n + 1)]
