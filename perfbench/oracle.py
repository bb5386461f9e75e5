"""Checks of irratio's CLI output, computed apart from the program.

Nothing here imports irratio.  Exact values come from ``math.comb``,
``math.factorial`` and ``fractions``; real values from ``mpmath``.  Each
``check_*`` function takes the command line and its standard output and
returns None when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import ast
import json
import math
from fractions import Fraction

import mpmath

ELLIPSIS = "…"


def niven_n(a: int) -> int:
    """Least n with 22·a**n < 7·n!, the Niven index for a candidate a/b."""
    n, power, fact = 1, a, 1
    while 22 * power >= 7 * fact:
        n += 1
        power *= a
        fact *= n
    return n


def niven_derivative_at_0(n: int, l: int) -> int:
    """f^(l)(0) for f = x^n (1-x)^n / n!: l! times the x^l coefficient."""
    if not n <= l <= 2 * n:
        return 0
    sign = -1 if (l - n) % 2 else 1
    return sign * math.comb(n, l - n) * math.factorial(l) // math.factorial(n)


def niven_N(a: int, b: int, n: int) -> int:
    """N = b^n Σ_k (-1)^k (a/b)^(n-k) (f^(2k)(0) + f^(2k)(1)).

    f(1-x) = f(x), so f^(l)(1) = (-1)^l f^(l)(0), which is f^(l)(0) for the
    even orders used here.
    """
    total = 0
    for k in range(n + 1):
        sign = -1 if k % 2 else 1
        total += sign * a ** (n - k) * b ** k * 2 * niven_derivative_at_0(n, 2 * k)
    return total


def niven_integral(a: int, n: int, dps: int = 50) -> mpmath.mpf:
    """π·a^n ∫_0^1 x^n (1-x)^n / n! · sin(πx) dx by mpmath quadrature.

    The integrand is scaled by 4^n·n! to peak near 1: mpmath's quadrature
    stops on an absolute error, so an integrand of size 1e-43 would pass
    after the first level whatever its value.
    """
    with mpmath.workdps(dps):
        val, err = mpmath.quad(
            lambda x: (4 * x * (1 - x)) ** n * mpmath.sin(mpmath.pi * x),
            [0, 0.5, 1], error=True)
        if err > mpmath.mpf(10) ** (10 - dps):
            raise ArithmeticError(f"quadrature error {err} at n = {n}")
        scale = mpmath.pi * mpmath.mpf(a) ** n / (mpmath.mpf(4) ** n
                                                 * mpmath.factorial(n))
        return +(scale * val)


def scaled_partial_sum(n: int) -> int:
    """Σ_{k<=n} n!/k!, by S_0 = 1 and S_j = j·S_(j-1) + 1."""
    s = 1
    for j in range(1, n + 1):
        s = s * j + 1
    return s


def e_witness_M(a: int, b: int) -> int:
    """M = n!·a/b - Σ_{k<=n} n!/k! with n = b."""
    return math.factorial(b) * a // b - scaled_partial_sum(b)


def e_tail(n: int) -> mpmath.mpf:
    """n!·(e - Σ_{k<=n} 1/k!) from mpmath's e, at enough digits to keep
    the cancellation exact to about 20 significant digits."""
    fact = math.factorial(n)
    partial = scaled_partial_sum(n)
    dps = int(fact.bit_length() * 0.30103) + 30
    with mpmath.workdps(dps):
        return +(mpmath.mpf(fact) * mpmath.e - partial)


def decimal_prefix(constant: str, digits: int) -> str:
    """The first `digits` decimals of pi or e from mpmath, truncated."""
    with mpmath.workdps(digits + 30):
        x = mpmath.pi if constant == "pi" else mpmath.e
        scaled = int(mpmath.floor(x * mpmath.mpf(10) ** (digits + 10)))
    s = str(scaled)
    return s[0] + "." + s[1:1 + digits]


def cf_of_interval(lo: Fraction, hi: Fraction, depth: int) -> list[int]:
    """Partial quotients shared by every real in [lo, hi], at most depth."""
    out: list[int] = []
    while len(out) < depth:
        flo, fhi = math.floor(lo), math.floor(hi)
        if flo != fhi:
            break
        out.append(flo)
        if lo == flo or hi == fhi:
            break
        lo, hi = 1 / (hi - fhi), 1 / (lo - flo)
    return out


def pi_quotients(depth: int) -> list[int]:
    """Partial quotients of π from an mpmath digit string, exactly."""
    digits = 3 * depth + 40
    with mpmath.workdps(digits + 10):
        scaled = int(mpmath.floor(mpmath.pi * mpmath.mpf(10) ** digits))
    q = cf_of_interval(Fraction(scaled, 10 ** digits),
                       Fraction(scaled + 1, 10 ** digits), depth)
    if len(q) < depth:
        raise ValueError(f"{digits} digits of pi certify only {len(q)} quotients")
    return q


def e_quotients(depth: int) -> list[int]:
    """e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]."""
    return [2] + [2 * (i + 1) // 3 if i % 3 == 2 else 1
                  for i in range(1, depth)]


def convergents(quotients: list[int]) -> list[Fraction]:
    out, p_prev, p, q_prev, q = [], 1, quotients[0], 0, 1
    out.append(Fraction(p, q))
    for a in quotients[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append(Fraction(p, q))
    return out


def _flag(argv: list[str], name: str, default: int) -> int:
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _inside(value: mpmath.mpf, lo: Fraction, hi: Fraction, rel: str) -> bool:
    """value lies in [lo, hi], widened by a relative tolerance for the
    quadrature or series error of the mpmath reference."""
    with mpmath.workdps(60):
        tol = abs(value) * mpmath.mpf(rel)
        return (mpmath.mpf(lo.numerator) / lo.denominator - tol <= value
                <= mpmath.mpf(hi.numerator) / hi.denominator + tol)


def check_pi2_witness(argv: list[str], out: str) -> str | None:
    a, b = (int(x) for x in argv[2].split("/"))
    r = json.loads(out)
    n = niven_n(a)
    if (int(r["a"]), int(r["b"]), int(r["n"])) != (a, b, n):
        return f"a, b, n = {r['a']}, {r['b']}, {r['n']}; expected {a}, {b}, {n}"
    if int(r["N"]) != niven_N(a, b, n):
        return "N differs from the endpoint-derivative sum"
    bound = Fraction(22 * a ** n, 7 * math.factorial(n))
    if _fraction(r["upper_bound"]) != bound:
        return f"upper bound {r['upper_bound']} is not 22·a^n/(7·n!)"
    lo, hi = _fraction(r["I_enclosure"]["lo"]), _fraction(r["I_enclosure"]["hi"])
    if not 0 < lo <= hi < bound:
        return "I enclosure is not strictly inside (0, upper bound)"
    if not _inside(niven_integral(a, n), lo, hi, "1e-30"):
        return "I enclosure does not contain the quadrature value"
    if r["verdict"] != "CONTRADICTION":
        return f"verdict {r['verdict']}"
    return None


def check_e_witness(argv: list[str], out: str) -> str | None:
    a, b = (int(x) for x in argv[2].split("/"))
    r = json.loads(out)
    if (int(r["a"]), int(r["b"]), int(r["n"])) != (a, b, b):
        return f"a, b, n = {r['a']}, {r['b']}, {r['n']}; expected {a}, {b}, {b}"
    if int(r["M"]) != e_witness_M(a, b):
        return "M differs from n!·a/b - Σ n!/k!"
    lo = _fraction(r["tail_enclosure"]["lo"])
    hi = _fraction(r["tail_enclosure"]["hi"])
    if not 0 < lo <= hi < Fraction(1, b):
        return "tail enclosure is not strictly inside (0, 1/n)"
    if not _inside(e_tail(b), lo, hi, "1e-15"):
        return "tail enclosure does not contain n!·(e - partial sum)"
    if r["verdict"] != "CONTRADICTION":
        return f"verdict {r['verdict']}"
    return None


def near_digit_boundary(constant: str, decimals: int, width_digits: int) -> bool:
    """Whether a multiple of 10**-(decimals+1) lies within 10**-width_digits
    of the constant, so that an enclosure narrower than 10**-width_digits
    may straddle it and leave decimal number decimals+1 uncertified."""
    with mpmath.workdps(width_digits + 30):
        x = mpmath.pi if constant == "pi" else mpmath.e
        y = x * mpmath.mpf(10) ** (decimals + 1)
        frac = y - mpmath.floor(y)
        return min(frac, 1 - frac) < mpmath.mpf(10) ** (decimals + 1 - width_digits)


def check_digits(argv: list[str], out: str) -> str | None:
    """A prefix of the constant ending in an ellipsis, with all the
    requested decimals unless a digit boundary lies within 10**-digits of
    the constant (then the enclosure cannot certify the next digit)."""
    constant, digits = argv[1], _flag(argv, "--digits", 10)
    text = out.strip()
    if not text.endswith(ELLIPSIS):
        return f"{text[:20]!r}… does not end in an ellipsis"
    printed = text[:-1]
    decimals = len(printed) - 2
    if not 0 <= decimals <= digits:
        return f"{decimals} decimals printed, {digits} requested"
    if printed != decimal_prefix(constant, decimals):
        return f"{printed[:20]}… is not a prefix of {constant}"
    if decimals < digits and not near_digit_boundary(constant, decimals, digits):
        return f"only {decimals} of {digits} decimals printed"
    return None


def check_cf(argv: list[str], out: str) -> str | None:
    constant, depth = argv[1], _flag(argv, "--depth", 10)
    lines = out.strip().split("\n")
    if not lines[0].startswith("quotients: "):
        return "no quotients line"
    got = ast.literal_eval(lines[0][len("quotients: "):])
    want = pi_quotients(depth) if constant == "pi" else e_quotients(depth)
    if got != want:
        return f"quotients {got[:8]}… differ from {want[:8]}…"
    convs = [_fraction(line.split()[0]) for line in lines[1:-1]]
    if convs != convergents(want):
        return "convergents differ from the quotients' convergents"
    if lines[-1] != f"certified depth: {depth}":
        return f"last line {lines[-1]!r}"
    return None


def check_identities(argv: list[str], out: str) -> str | None:
    max_n = _flag(argv, "--max-n", 10)
    want = [f"n={n}: differential identity pass; endpoint derivatives integral"
            for n in range(1, max_n + 1)]
    if out.strip().split("\n") != want:
        return f"output is not one pass line for each n <= {max_n}"
    return None


def check(argv: list[str], out: str) -> str | None:
    """Dispatch on the command line's subcommand."""
    if argv[:2] == ["witness", "pi2"]:
        return check_pi2_witness(argv, out)
    if argv[:2] == ["witness", "e"]:
        return check_e_witness(argv, out)
    if argv[0] == "digits":
        return check_digits(argv, out)
    if argv[0] == "cf":
        return check_cf(argv, out)
    if argv[:2] == ["check", "identities"]:
        return check_identities(argv, out)
    return f"no oracle for {' '.join(argv)}"
