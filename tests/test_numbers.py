import operator
import random
from fractions import Fraction
from math import isqrt

import pytest

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
