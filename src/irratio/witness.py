"""Contradiction certificates for rational candidates of pi**2 and e.

For a candidate pi**2 = a/b the Niven pipeline produces the exact integer
N the proof would force into existence together with a rigorous enclosure
of the integral I that pins I into (0,1).  I is exact in closed form, read
off the integer endpoint-derivative tables of the Niven polynomial f; N is
computed along two independent routes (substitution into that closed form,
and endpoint evaluation of the auxiliary polynomial g built by repeated
differentiation of f) and cross-asserted.

For e = a/b the certificate is the integer M = n!·a/b - sum_{k<=n} n!/k!
with n = b, the sum taken by the integer recurrence S_j = j·S_(j-1) + 1,
against a direct enclosure of the series tail n!(e - S_n/n!) =
sum_{j>=1} 1/((n+1)···(n+j)) inside (0, 1/n); no enclosure of e is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinatorics import dominance_index, factorial
from .numbers import RationalInterval
from .pi_engine import PrecisionExhausted, pi_enclosure
from .polynomials import (niven_endpoint_derivatives, niven_numerators,
                          niven_poly, nth_derivative)
from .series import e_partial_sum, e_tail_enclosure
from .trigpoly import PiPoly, PiRat, pirat_eval_interval, pirat_substitute_pi2

CONTRADICTION = "CONTRADICTION"
INCONCLUSIVE = "INCONCLUSIVE"

# Cap on the digits of pi a certificate may ask for; the CLI applies the
# same cap to every digits request.
DEFAULT_MAX_PI_DIGITS = 4096

# 22/7 is used as the certified rational upper bound of pi when selecting n.
PI_UPPER_BOUND = Fraction(22, 7)

# Factor by which the pi precision of the witness undercuts the bare
# cancellation bound: the enclosure of I comes out narrower than 2**-32·I,
# not merely narrower than I.
PRECISION_GUARD = 1 << 32


@lru_cache(maxsize=1)
def _certify_pi_upper_bound() -> bool:
    enc = pi_enclosure(6)
    if not enc.value.hi < PI_UPPER_BOUND:
        raise AssertionError("22/7 failed certification as upper bound")
    return True


def choose_niven_n(a: int, b: int) -> int:
    """Minimal n with (22/7)·a**n/n! < 1: dominance_index(a, 22/7), once
    22/7 is certified as an upper bound of pi."""
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive integers")
    _certify_pi_upper_bound()
    return dominance_index(a, PI_UPPER_BOUND)


def build_g(a: int, b: int, n: int) -> PiPoly:
    """g(x) = b**n · sum_k (-1)^k pi^(2n-2k) f^(2k)(x) for f the Niven
    polynomial of index n; only even pi-powers 0..2n occur.

    The x**i coefficient of g is built as one PiRat with the terms
    {2n-2k: (-1)^k b**n (f^(2k))_i}, so the cost is quadratic in n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bn = b ** n
    terms: list[dict[int, Fraction]] = [{} for _ in range(2 * n + 1)]
    d = niven_poly(n)
    for k in range(n + 1):
        scale = -bn if k % 2 else bn
        for i, c in enumerate(d.coeffs):
            terms[i][2 * n - 2 * k] = scale * c
        d = nth_derivative(d, 2)
    return PiPoly(PiRat(t) for t in terms)


# Integer coefficient table of a polynomial in x over Laurent polynomials
# in the formal pi symbol: {(x-power, pi-exponent): numerator}, all on one
# common denominator that the caller keeps.
Table = dict[tuple[int, int], int]


def niven_g_table(b: int, n: int) -> Table:
    """n!·g as an integer table, for build_g's g with f of index n.

    F = n!·f is differentiated twice per step in integers, giving
    n!·g = b**n · sum_k (-1)^k pi^(2n-2k) F^(2k): the (i, 2n-2k) entry is
    (-1)^k b**n times the x**i coefficient of F^(2k).  The cost is
    quadratic in n and no Fraction is formed.
    """
    bn = b ** n
    F = niven_numerators(n)
    table: Table = {}
    for k in range(n + 1):
        scale = -bn if k % 2 else bn
        for i, c in enumerate(F):
            if c:
                table[i, 2 * n - 2 * k] = scale * c
        F = [i * (i - 1) * F[i] for i in range(2, len(F))]
    return table


def _d_dx(t: Table) -> Table:
    return {(i - 1, e): i * c for (i, e), c in t.items() if i}


def _times_pi(t: Table, k: int, s: int = 1) -> Table:
    """s·pi**k·t."""
    return {(i, e + k): s * c for (i, e), c in t.items()}


def _plus(left: Table, right: Table) -> Table:
    out = dict(left)
    for key, c in right.items():
        out[key] = out.get(key, 0) + c
    return out


def _first_mismatch(left: Table, right: Table, label: str):
    """(label, x-power, pi-exponent) of the least x-power, then the least
    pi-exponent, at which the tables differ; None when they are equal."""
    keys = [key for key in left.keys() | right.keys()
            if left.get(key, 0) != right.get(key, 0)]
    return (label, *min(keys)) if keys else None


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the exact symbolic identity checks behind the pi proof."""

    n: int
    ode_ok: bool
    antiderivative_ok: bool
    first_mismatch: tuple[str, int, int] | None  # (which, x-power, pi-exponent)

    @property
    def passed(self) -> bool:
        return self.ode_ok and self.antiderivative_ok


def verify_ode_identity(a: int, b: int, n: int,
                        g_override: PiPoly | None = None) -> IdentityReport:
    """Check g'' + pi^2 g = b^n pi^(2n+2) f and the product/chain-rule
    identity (g' sin - pi·g cos)' = b^n pi^(2n+2) f sin, coefficient-wise.

    Both sides are integer tables indexed by (x-power, pi-exponent) on one
    common denominator D: D·g, and b^n·(D/n!)·F at pi^(2n+2) with
    F = n!·f.  The default g is niven_g_table(b, n) on D = n!; g_override
    substitutes a (possibly perturbed) PiPoly g, for negative controls,
    and is converted once onto the least D that clears its denominators
    and n!.  The derivative of T = g'·sin + (-pi·g)·cos is formed by the
    rule (P sin + Q cos)' = (P' - pi·Q) sin + (Q' + pi·P) cos, whose sin
    part must equal the right-hand side and whose cos part must vanish.
    The first mismatch is the least x-power, then the least pi-exponent,
    of the first identity that fails.  a does not enter: g and both
    identities depend on b and n alone.
    """
    F = niven_numerators(n)
    fact = factorial(n)
    if g_override is None:
        den, g = fact, niven_g_table(b, n)
    else:
        terms = [(i, e, c) for i, r in enumerate(g_override.coeffs)
                 for e, c in r.items()]
        den = math.lcm(fact, *(c.denominator for _, _, c in terms))
        g = {(i, e): c.numerator * (den // c.denominator) for i, e, c in terms}
    scale = b ** n * (den // fact)
    rhs = {(i, 2 * n + 2): scale * c for i, c in enumerate(F) if c}

    dg = _d_dx(g)
    mism = _first_mismatch(_plus(_d_dx(dg), _times_pi(g, 2)), rhs, "ode")

    P, Q = dg, _times_pi(g, 1, -1)
    mism2 = _first_mismatch(_plus(_d_dx(P), _times_pi(Q, 1, -1)), rhs,
                            "antiderivative-sin")
    if mism2 is None:
        mism2 = _first_mismatch(_plus(_d_dx(Q), _times_pi(P, 1)), {},
                                "antiderivative-cos")

    return IdentityReport(n, mism is None, mism2 is None, mism or mism2)


@dataclass(frozen=True)
class PiWitnessReport:
    a: int
    b: int
    n: int
    N: int
    I_exact: PiRat
    I_enclosure: RationalInterval
    upper_bound: Fraction
    verdict: str
    pi_digits: int


def _pi_digits_up_front(I_exact: PiRat, a: int, n: int) -> int:
    """Digits of pi for which one evaluation of I_exact certifies 0 < I < bound.

    With t = pi**2 and m = -(lowest exponent)/2 >= 1, I·pi**(2m) = Σ c_j t**j.
    Over a pi enclosure of width w < 10**-10 (so 9 < t < 10), Horner in t,
    its rounding and the division by t**m widen I by less than B·w, where
    B = Σ|c_j|·10**j·(j+1) bounds the cancellation.  On [1/4, 3/4],
    f >= (3/16)**n/n!, sin(pi x) > 7/10 and pi > 3, so
    I >= I_low = (21/20)·a**n·(3/16)**n/n!.  The result d is the least with
    10**d > PRECISION_GUARD·B/I_low; the enclosure then lies in
    I·(1 ± 2**-32), inside (0, bound) because I < pi·a**n/(4**n·n!).
    """
    m = -min(I_exact.exponents) // 2
    B = sum(abs(c) * 10 ** j * (j + 1)
            for j, c in ((e // 2 + m, c) for e, c in I_exact.items()))
    I_low = Fraction(21 * (3 * a) ** n, 20 * 16 ** n * factorial(n))
    ratio = PRECISION_GUARD * B / I_low
    digits, power = 1, 10
    while power <= ratio:
        digits += 1
        power *= 10
    return digits


def pi_witness(a: int, b: int, n_override: int | None = None,
               max_pi_digits: int = DEFAULT_MAX_PI_DIGITS) -> PiWitnessReport:
    """Full contradiction certificate for the candidate pi**2 = a/b.

    The symbolic stage gives I exactly as a Laurent polynomial in pi from
    the closed form of repeated integration by parts,
    ∫01 f sin(pi x) dx = Σ_k (-1)^k (f^(2k)(0) + f^(2k)(1)) / pi^(2k+1),
    whose endpoint values are the integer tables of
    niven_endpoint_derivatives.  N follows by two independent routes:
    substituting pi**2 = a/b into I, and g(0) + g(1) with g from build_g,
    which differentiates f and never reads the tables.  The numeric stage
    is one pass: the pi precision is fixed up front from a cancellation
    bound, pi is enclosed once and I is evaluated once.  PrecisionExhausted
    is raised when that precision exceeds max_pi_digits, before g is built
    and before any evaluation.
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive integers")
    n = choose_niven_n(a, b)
    if n_override is not None:
        if PI_UPPER_BOUND * a ** n_override >= factorial(n_override):
            raise ValueError(
                f"n_override={n_override} violates (22/7)·a^n/n! < 1")
        n = n_override

    # The tables hold f^(l) at 0 and 1 for l = 0..2n and assert deg f = 2n,
    # so f^(2n+1) = 0 and the integration by parts ends inside them.
    ends = niven_endpoint_derivatives(n)
    at0, at1, an = ends.at0, ends.at1, a ** n
    I_exact = PiRat({-2 * k: (-1) ** k * an * (at0[2 * k] + at1[2 * k])
                     for k in range(n + 1)})
    exps = I_exact.exponents
    if not all(e % 2 == 0 for e in exps):
        raise AssertionError("I must involve only even pi-powers")
    if not all(-(2 * n + 2) <= e <= 2 for e in exps):
        raise AssertionError("pi-exponent out of range")

    digits = _pi_digits_up_front(I_exact, a, n)
    if digits > max_pi_digits:
        raise PrecisionExhausted(
            f"candidate {a}/{b} needs {digits} digits of pi, "
            f"over the cap {max_pi_digits}")

    candidate = Fraction(a, b)
    N_direct = pirat_substitute_pi2(I_exact, candidate)
    if N_direct.denominator != 1:
        raise AssertionError("N must be an exact integer")

    # g(0) is the constant coefficient and g(1) the coefficient sum.
    g = build_g(a, b, n)
    g0 = pirat_substitute_pi2(g.coeff(0), candidate)
    g1 = pirat_substitute_pi2(sum(g.coeffs, PiRat()), candidate)
    if g0.denominator != 1 or g1.denominator != 1:
        raise AssertionError("g(0), g(1) must be integers under the substitution")
    if N_direct != g0 + g1:
        raise AssertionError(
            "central equality N = g(0)+g(1) failed between independent routes")
    N = int(N_direct)

    upper_bound = PI_UPPER_BOUND * a ** n / factorial(n)
    if not upper_bound < 1:
        raise AssertionError("upper bound pi·a^n/n! must be below 1")

    enclosure = pirat_eval_interval(I_exact, pi_enclosure(digits).value)
    if not (0 < enclosure.lo and enclosure.hi < upper_bound):
        raise PrecisionExhausted(
            f"{digits} digits of pi, fixed up front, did not certify "
            f"0 < I < {upper_bound} for candidate {a}/{b}")

    contradiction = N <= 0 or N >= 1 or not enclosure.contains(N)
    verdict = CONTRADICTION if contradiction else INCONCLUSIVE
    return PiWitnessReport(a, b, n, N, I_exact, enclosure, upper_bound,
                           verdict, digits)


@dataclass(frozen=True)
class EWitnessReport:
    a: int
    b: int
    n: int
    M: int
    tail_enclosure: RationalInterval
    verdict: str


def e_witness(a: int, b: int) -> EWitnessReport:
    """Contradiction certificate for the candidate e = a/b, with n = b.

    M = n!·a/b - S_n is an exact integer, with S_n = sum_{k<=n} n!/k! from
    the recurrence of `e_partial_sum`; the paper's tail n!·(e - S_n/n!) is
    enclosed directly by `e_tail_enclosure` and checked to lie in (0, 1/n),
    which no integer does.  Both checks raise AssertionError, also under
    python -O.
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive integers")
    n = b
    fact, partial_scaled = e_partial_sum(n)
    scaled, rem = divmod(fact * a, b)
    if rem:
        raise AssertionError("n!·a/b must be an integer for n = b")
    M = scaled - partial_scaled

    tail = e_tail_enclosure(n)
    if not tail.strictly_inside(0, Fraction(1, n)):
        raise AssertionError("tail enclosure must lie in (0, 1/n)")

    contradiction = not tail.contains(M)
    verdict = CONTRADICTION if contradiction else INCONCLUSIVE
    return EWitnessReport(a, b, n, M, tail, verdict)
