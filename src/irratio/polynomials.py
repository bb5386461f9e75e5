"""Dense exact polynomials and the Niven polynomial.

Poly is the one dense polynomial ring of the package: rational
coefficients here, PiRat coefficients in trigpoly.PiPoly.  The Niven
polynomial x^n (1-x)^n / n! is the auxiliary function of the
pi-irrationality argument; its derivatives at 0 and 1 are exact integers,
which this module computes and asserts rather than assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from .combinatorics import binomial, factorial


class Poly:
    """Immutable dense polynomial in x over an exact coefficient ring.

    coeffs[i] is the coefficient of x**i; trailing zeros are trimmed and
    the zero polynomial has an empty coefficient tuple.  The class
    attribute _coerce maps each input coefficient into the ring: Fraction
    here, PiRat in the subclass trigpoly.PiPoly.  Every operation builds
    its result with type(self), so a subclass inherits the whole ring.
    """

    __slots__ = ("coeffs",)
    _coerce = Fraction

    def __init__(self, coeffs: Iterable = ()):
        cs = [self._coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def x_power(cls, n: int, coeff=1) -> "Poly":
        return cls([0] * n + [coeff])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self._coerce(0)

    def derivative(self) -> "Poly":
        """Term-wise power rule."""
        return type(self)([c * i for i, c in enumerate(self.coeffs) if i])

    def __call__(self, x: Fraction | int):
        """Exact Horner evaluation at a rational x."""
        x = Fraction(x)
        acc = self._coerce(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "Poly":
        return type(self)([-c for c in self.coeffs])

    def scale(self, s) -> "Poly":
        """Every coefficient times the ring element s."""
        return type(self)([c * s for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        """Product with a polynomial of the same ring; any other factor is
        a ring element and scales."""
        if not isinstance(other, Poly):
            return self.scale(other)
        out = [self._coerce(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return type(self)(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)})"


derivative = Poly.derivative


def nth_derivative(p: Poly, l: int) -> Poly:
    """l-fold derivative, by l applications of the power rule."""
    if l < 0:
        raise ValueError("derivative order must be non-negative")
    for _ in range(l):
        p = p.derivative()
    return p


def reflect_integers(cs: list[int]) -> list[int]:
    """q with q(x) = p(1-x) for p = Σ cs[i]·x**i, in integers.

    q_j = (-1)^j Σ_{i>=j} C(i, j)·c_i, formed without a binomial: a Taylor
    shift by 1 (p(x+1), by deg p passes of running sums, each the Horner
    step of one division by x-1) and then the signs of x -> -x.
    """
    r = list(reversed(cs))
    for top in range(len(r), 1, -1):
        r[:top] = accumulate(r[:top])
    return [-c if j % 2 else c for j, c in enumerate(reversed(r))]


def reflect(p: Poly) -> Poly:
    """q with q(x) = p(1-x): reflect_integers on the numerators of the c_i
    over their common denominator, with one Fraction per q_j."""
    cs = p.coeffs
    den = math.lcm(*(c.denominator for c in cs))
    nums = [c.numerator * (den // c.denominator) for c in cs]
    return Poly(Fraction(q, den) for q in reflect_integers(nums))


def niven_numerators(n: int) -> list[int]:
    """F = n!·f for the Niven polynomial f of index n, by the closed form
    F_i = (-1)^(i-n)·C(n, i-n) for n <= i <= 2n and F_i = 0 below n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [0] * n + [(-1) ** j * math.comb(n, j) for j in range(n + 1)]


def niven_poly(n: int) -> Poly:
    """x^n (1-x)^n / n!, degree 2n.

    Built from the closed-form coefficients (-1)^(j-n) / ((j-n)!(2n-j)!)
    for n <= j <= 2n and asserted equal to the direct product expansion.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [Fraction(0)] * (2 * n + 1)
    for j in range(n, 2 * n + 1):
        sign = -1 if (j - n) % 2 else 1
        coeffs[j] = Fraction(sign, factorial(j - n) * factorial(2 * n - j))
    p = Poly(coeffs)
    q = Poly([1])
    one_minus_x = Poly([1, -1])
    for _ in range(n):
        q = q * one_minus_x
    direct = Poly.x_power(n) * q * Fraction(1, factorial(n))
    if p != direct:
        raise AssertionError(
            "closed-form Niven coefficients disagree with expansion")
    return p


@dataclass(frozen=True)
class EndpointDerivatives:
    """f^(l)(0) and f^(l)(1) for l = 0..2n, all exact integers."""

    at0: list[int]
    at1: list[int]


def niven_endpoint_derivatives(n: int) -> EndpointDerivatives:
    """Endpoint derivative tables of the Niven polynomial, in integers.

    F = niven_numerators(n) is checked against the expansion of
    x^n (1-x)^n by n products with 1-x and to have degree 2n, so
    f^(l) = 0 for l > 2n and the tables hold every non-zero derivative.
    Its reflection R (F(1-x) = R(x), by reflect_integers) is checked to
    equal F.  Then f^(l)(0) = l!·F_l/n! and, by the chain-rule sign,
    f^(l)(1) = (-1)^l·l!·R_l/n!; each division is checked to be exact.
    Values below order n are checked to vanish at 0, and for n <= l <= 2n
    checked against the closed form C(n, l-n)·(-1)^(n-l)·l!/n!.  No
    Fraction is formed.
    """
    F = niven_numerators(n)
    expansion = [1]
    for _ in range(n):
        expansion = [c - d for c, d in zip(expansion + [0], [0] + expansion)]
    if F != [0] * n + expansion:
        raise AssertionError(
            "closed-form Niven coefficients disagree with expansion")
    if len(F) != 2 * n + 1 or F[-1] == 0:
        raise AssertionError("Niven polynomial must have degree 2n")
    R = reflect_integers(F)
    if R != F:
        raise AssertionError("Niven polynomial must be symmetric under x -> 1-x")
    fact_n = factorial(n)
    fact_l = 1
    at0: list[int] = []
    at1: list[int] = []
    for l in range(2 * n + 1):
        if l:
            fact_l *= l
        v0, rem0 = divmod(fact_l * F[l], fact_n)
        v1, rem1 = divmod((-1) ** l * fact_l * R[l], fact_n)
        if rem0 or rem1:
            raise AssertionError(
                f"non-integral endpoint derivative at n={n}, l={l}")
        if l < n and v0 != 0:
            raise AssertionError("derivatives below order n must vanish at 0")
        if l >= n and v0 * fact_n != (
                (-1) ** (l - n) * binomial(n, l - n) * fact_l):
            raise AssertionError("endpoint derivative disagrees with closed form")
        at0.append(v0)
        at1.append(v1)
    return EndpointDerivatives(at0, at1)
