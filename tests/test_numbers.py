import operator
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irratio.numbers import (IntervalDomainError, RationalInterval, iv_sqrt,
                             to_decimal)


def F(a, b=1):
    return Fraction(a, b)


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


class TestNoFloats:
    def test_float_endpoint(self):
        with pytest.raises(TypeError):
            RationalInterval(0.5)

    def test_float_upper_endpoint(self):
        with pytest.raises(TypeError):
            RationalInterval(1, 0.5)


class TestIntervalArith:
    def test_add(self):
        assert RationalInterval(1, 2) + RationalInterval(3, 4) \
            == RationalInterval(4, 6)

    def test_symmetric_product(self):
        x = RationalInterval(-1, 1)
        prod = x * x
        assert prod.lo <= -1 and prod.hi >= 1

    def test_square_of_archimedes_bracket(self):
        x = RationalInterval(F(31408450, 10 ** 7), F(31428571, 10 ** 7))
        sq = x * x
        # endpoint squaring oracle
        assert sq.lo == x.lo * x.lo
        assert sq.hi == x.hi * x.hi
        assert sq.lo < F(98650, 10 ** 4) and sq.hi > F(98775, 10 ** 4)

    def test_division_by_zero_interval(self):
        with pytest.raises(IntervalDomainError):
            RationalInterval(1, 2) / RationalInterval(-1, 1)

    def test_inclusion_monotonicity(self):
        rng = random.Random(7)

        def rand_iv(span):
            a = F(rng.randint(-50, 50), rng.randint(1, 9))
            return RationalInterval(a, a + F(rng.randint(0, span), 7))

        for op in "+-*":
            for _ in range(200):
                x, y = rand_iv(5), rand_iv(5)
                xw = RationalInterval(x.lo - 1, x.hi + 1)
                yw = RationalInterval(y.lo - 1, y.hi + 1)
                assert OPS[op](x, y).is_subset_of(OPS[op](xw, yw))

    def test_containment_soundness(self):
        rng = random.Random(11)
        for _ in range(1000):
            x = F(rng.randint(-100, 100), rng.randint(1, 40))
            y = F(rng.randint(-100, 100), rng.randint(1, 40))
            for op in ("+", "-", "*", "/"):
                if op == "/" and y == 0:
                    continue
                exact = OPS[op](x, y)
                iv = OPS[op](RationalInterval(x), RationalInterval(y))
                assert iv.contains(exact)

    def test_power_straddling_zero(self):
        x = RationalInterval(-2, 1)
        assert x.power(2) == RationalInterval(0, 4)
        assert x.power(3) == RationalInterval(-8, 1)

    def test_simplify_is_outward(self):
        x = RationalInterval(F(123456789, 987654321), F(987654321, 123456789))
        s = x.simplify(16)
        assert x.is_subset_of(s)
        assert s.lo.denominator <= 1 << 16


class TestIvSqrt:
    def test_perfect_square(self):
        iv = iv_sqrt(RationalInterval(4, 4), 30)
        assert iv.contains(2)
        assert iv.width <= F(1, 2 ** 29)

    def test_sqrt2_against_bisection_oracle(self):
        # oracle: integer bisection of s^2 <= 2 * 10^16 on a decimal grid
        s = isqrt(2 * 10 ** 16)
        lo_oracle, hi_oracle = F(s, 10 ** 8), F(s + 1, 10 ** 8)
        assert lo_oracle == F(141421356, 10 ** 8)
        iv = iv_sqrt(RationalInterval(2, 2), 30)
        assert lo_oracle <= iv.lo and iv.hi <= hi_oracle

    def test_sqrt3_against_bisection_oracle(self):
        s = isqrt(3 * 10 ** 14)
        lo_oracle, hi_oracle = F(s, 10 ** 7), F(s + 1, 10 ** 7)
        assert lo_oracle == F(17320508, 10 ** 7)
        iv = iv_sqrt(RationalInterval(3, 3), 30)
        assert lo_oracle <= iv.lo and iv.hi <= hi_oracle

    def test_negative_input(self):
        with pytest.raises(IntervalDomainError):
            iv_sqrt(RationalInterval(-1, 1), 10)

    def test_square_contains_input(self):
        rng = random.Random(3)
        for _ in range(100):
            lo = F(rng.randint(0, 500), rng.randint(1, 30))
            x = RationalInterval(lo, lo + F(rng.randint(0, 10), 7))
            iv = iv_sqrt(x, 24)
            assert (iv * iv).lo <= x.lo and (iv * iv).hi >= x.hi


class TestToDecimal:
    def test_rhind_prefix(self):
        v = RationalInterval(F(256, 81))
        assert to_decimal(v, 5) == "3.16049…"

    def test_twentytwo_sevenths(self):
        assert to_decimal(RationalInterval(F(22, 7)), 6) == "3.142857…"

    def test_one_third(self):
        assert to_decimal(RationalInterval(F(1, 3)), 3) == "0.333…"

    def test_exact_terminating(self):
        assert to_decimal(RationalInterval(F(1, 4)), 5) == "0.25"

    def test_negative(self):
        assert to_decimal(RationalInterval(F(-22, 7)), 3) == "-3.142…"

    def test_never_prints_disagreeing_digit(self):
        rng = random.Random(19)
        for _ in range(300):
            lo = F(rng.randint(0, 10 ** 6), 10 ** 4)
            hi = lo + F(rng.randint(0, 100), 10 ** 4)
            text = to_decimal(RationalInterval(lo, hi), 8).rstrip("…")
            if "." not in text:
                continue
            printed = F(int(text.replace(".", ""))) / 10 ** len(text.split(".")[1])
            # truncation toward zero: printed <= lo and hi < printed + ulp
            ulp = F(1, 10 ** len(text.split(".")[1]))
            assert printed <= lo
            assert hi < printed + ulp


def per_digit_to_decimal(x: RationalInterval, max_digits: int) -> str:
    """Reference: the earlier to_decimal, one Fraction multiply, floor and
    subtract per digit on both endpoints."""
    lo, hi = x.lo, x.hi
    if hi <= 0 and lo < 0:
        return "-" + per_digit_to_decimal(RationalInterval(-hi, -lo), max_digits)
    if lo < 0 < hi:
        return "…"
    ilo, ihi = lo.__floor__(), hi.__floor__()
    if ilo != ihi:
        return "…"
    out = str(ilo)
    rlo, rhi = lo - ilo, hi - ihi
    if rlo == 0 and rhi == 0:
        return out
    digits = []
    exact = False
    for _ in range(max_digits):
        rlo *= 10
        rhi *= 10
        dlo, dhi = rlo.__floor__(), rhi.__floor__()
        if dlo != dhi:
            break
        digits.append(str(dlo))
        rlo -= dlo
        rhi -= dhi
        if rlo == 0 and rhi == 0:
            exact = True
            break
    if digits:
        out += "." + "".join(digits)
    return out if exact else out + "…"


@st.composite
def rational_intervals(draw):
    """Negative, zero-straddling, point, terminating and narrow intervals,
    with widths down to 10**-40."""
    kind = draw(st.sampled_from(["point", "terminating", "narrow", "wide"]))
    if kind == "terminating":
        base = draw(st.sampled_from([2, 5, 10]))
        lo = F(draw(st.integers(-10 ** 15, 10 ** 15)),
               base ** draw(st.integers(0, 70)))
        return RationalInterval(lo, lo)
    lo = F(draw(st.integers(-10 ** 12, 10 ** 12)), draw(st.integers(1, 10 ** 12)))
    if kind == "point":
        return RationalInterval(lo, lo)
    if kind == "narrow":
        width = F(draw(st.integers(0, 1000)), 10 ** draw(st.integers(3, 40)))
    else:
        width = F(draw(st.integers(0, 10 ** 6)), draw(st.integers(1, 10 ** 3)))
    return RationalInterval(lo, lo + width)


class TestToDecimalProperties:
    @settings(max_examples=200, deadline=None)
    @given(rational_intervals(), st.integers(1, 60))
    def test_matches_per_digit_loop(self, x, max_digits):
        assert to_decimal(x, max_digits) == per_digit_to_decimal(x, max_digits)

    @settings(max_examples=150, deadline=None)
    @given(rational_intervals(), st.integers(1, 60),
           st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9))
    def test_prints_a_prefix_of_every_member(self, x, max_digits, t):
        v = x.lo + t * x.width
        text = to_decimal(x, max_digits)
        body = text.removesuffix("…")
        if body.startswith("-"):
            assert v <= 0
            body, v = body[1:], -v
        if not body:
            return
        k = len(body.partition(".")[2])
        whole, frac = divmod((v * 10 ** k).__floor__(), 10 ** k)
        assert body == (f"{whole}.{frac:0{k}d}" if k else str(whole))
        if not text.endswith("…"):
            assert x.lo == x.hi and v == Fraction(body)

    def test_beyond_int_str_limit(self):
        # 5000 digits of 1/7 render although a 5000-digit int->str
        # conversion is over Python's limit
        assert to_decimal(RationalInterval(F(1, 7)), 5000) == \
            "0." + ("142857" * 834)[:5000] + "…"
