import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irratio.combinatorics import factorial
from irratio.numbers import RationalInterval
from irratio.series import (cos_enclosure, e_enclosure, e_partial_sum,
                            e_sandwich_enclosure, e_tail_enclosure,
                            exp_enclosure, sandwich_check, sin_enclosure,
                            squeeze_check)

F = Fraction


def exp_partial_sum(x, terms):
    return sum((F(x) ** k / factorial(k) for k in range(terms)), F(0))


def sin_partial_sum(x, terms):
    return sum(((-1) ** k * F(x) ** (2 * k + 1) / factorial(2 * k + 1)
                for k in range(terms)), F(0))


def cos_partial_sum(x, terms):
    return sum(((-1) ** k * F(x) ** (2 * k) / factorial(2 * k)
                for k in range(terms)), F(0))


def e_enclosure_by_fraction_sum(precision_digits):
    """The e enclosure as n Fraction additions of 1/k!, the route that
    e_partial_sum replaced: (value, terms_used, tail_bound)."""
    target = F(1, 2 * 10 ** precision_digits)
    n = 1
    fact = 1
    partial = F(2)
    while F(1, fact * n) >= target:
        n += 1
        fact *= n
        partial += F(1, fact)
    tail = F(1, fact * n)
    return RationalInterval(partial, partial + tail), n + 1, tail


class TestEPartialSum:
    def test_closed_form(self):
        for n in range(80):
            fact, s = e_partial_sum(n)
            assert fact == math.factorial(n)
            assert s == sum(fact // math.factorial(k) for k in range(n + 1))

    def test_negative(self):
        with pytest.raises(ValueError):
            e_partial_sum(-1)


class TestETailEnclosure:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=1, max_value=1500))
    @example(1)
    @example(1500)
    def test_inside_paper_bound_and_meets_e_enclosure(self, n):
        # differential check: the direct tail route against
        # n!·e_enclosure(d) - S_n, at a d where that is no wider than it
        tail = e_tail_enclosure(n)
        assert tail.strictly_inside(0, F(1, n))
        fact, s = e_partial_sum(n)
        d = fact.bit_length() * 3 // 10 + 40
        scaled = (e_enclosure(d).value - s / F(fact)) * RationalInterval(fact)
        assert scaled.width <= tail.width
        assert scaled.lo <= tail.hi and tail.lo <= scaled.hi

    def test_invalid(self):
        with pytest.raises(ValueError):
            e_tail_enclosure(0)


class TestEEnclosure:
    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=1, max_value=3000))
    @example(1)
    @example(4096)
    def test_matches_fraction_sum(self, d):
        r = e_enclosure(d)
        assert (r.value, r.terms_used, r.tail_bound) == \
            e_enclosure_by_fraction_sum(d)

    def test_ten_digits(self):
        iv = e_enclosure(10).value
        assert iv.lo >= F(27182818284, 10 ** 10)
        assert iv.hi <= F(27182818286, 10 ** 10)
        # 30-term oracle value is accurate to ~1e-32 and must be enclosed
        assert iv.contains(exp_partial_sum(1, 30))

    def test_one_digit(self):
        iv = e_enclosure(1).value
        assert iv.lo >= F(27, 10) and iv.hi <= F(28, 10)

    def test_lower_bound_above_two(self):
        assert e_enclosure(1).value.lo > 2

    def test_nested_and_shrinking(self):
        prev = e_enclosure(1).value
        for d in range(2, 30, 3):
            cur = e_enclosure(d).value
            assert cur.is_subset_of(prev)
            assert cur.width < prev.width
            prev = cur


class TestExpEnclosure:
    def test_agrees_with_e_at_one(self):
        a = exp_enclosure(F(1), 12).value
        b = e_enclosure(12).value
        a.intersect(b)  # raises if disjoint
        oracle = exp_partial_sum(1, 30)
        assert a.contains(oracle) and b.contains(oracle)

    def test_sqrt_e(self):
        iv = exp_enclosure(F(1, 2), 8).value
        oracle = exp_partial_sum(F(1, 2), 30)
        assert iv.contains(oracle)
        assert iv.lo > F(164872127, 10 ** 8) - F(1, 10 ** 8)
        assert iv.hi < F(164872128, 10 ** 8) + F(1, 10 ** 8)

    def test_functional_equation(self):
        # exp(1/4)^4 must contain e
        iv = exp_enclosure(F(1, 4), 12).value.power(4)
        assert iv.contains(exp_partial_sum(1, 30))

    def test_domain(self):
        for bad in (F(0), F(-1, 2), F(3, 2)):
            with pytest.raises(ValueError):
                exp_enclosure(bad, 5)


class TestSinCos:
    def test_sin_zero(self):
        assert sin_enclosure(F(0), 10).value == RationalInterval(0, 0)

    def test_cos_zero(self):
        assert cos_enclosure(F(0), 10).value == RationalInterval(1, 1)

    def test_sin_tenth(self):
        iv = sin_enclosure(F(1, 10), 10).value
        assert iv.contains(sin_partial_sum(F(1, 10), 20))
        assert iv.hi < F(1, 10)  # sin(x) < x certified

    def test_domain_cap(self):
        with pytest.raises(ValueError):
            sin_enclosure(F(9), 5)
        with pytest.raises(ValueError):
            cos_enclosure(F(-17, 2), 5)

    @settings(deadline=None, max_examples=60)
    @given(st.fractions(min_value=-8, max_value=8, max_denominator=10 ** 6),
           st.integers(min_value=1, max_value=60))
    def test_contains_mpmath(self, x, d):
        # mpmath's value at d + 60 digits, to within 10**-(d + 50): far
        # below the omitted term that sets each half-width (about
        # 10**-(d + 20) at worst for these x; exact at x = 0)
        with mpmath.workdps(d + 60):
            xm = mpmath.mpf(x.numerator) / x.denominator
            tol = mpmath.mpf(10) ** -(d + 50)
            for enclose, f in ((sin_enclosure, mpmath.sin),
                               (cos_enclosure, mpmath.cos)):
                iv = enclose(x, d).value
                lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
                hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
                assert lo - tol <= f(xm) <= hi + tol

    def test_pythagorean_identity(self):
        rng = random.Random(5)
        for _ in range(50):
            x = F(rng.randint(-800, 800), 100)
            s = sin_enclosure(x, 15).value
            c = cos_enclosure(x, 15).value
            total = s.power(2) + c.power(2)
            assert total.contains(1)


class TestSandwich:
    def test_x1_n5(self):
        r = sandwich_check(F(1), 5)
        assert r.lhs == F(7776, 3125)
        assert r.rhs == F(163, 60)
        assert r.strict

    def test_equality_edge_at_n1(self):
        r = sandwich_check(F(1), 1)
        assert r.lhs == r.rhs == 2
        assert not r.strict

    def test_x2_n3(self):
        r = sandwich_check(F(2), 3)
        assert r.lhs == F(125, 27)
        assert r.rhs == F(19, 3)
        assert r.strict

    def test_grid(self):
        for x in (F(1, 2), F(1), F(2), F(3)):
            for n in range(2, 13):
                assert sandwich_check(x, n).strict


class TestSqueeze:
    def test_half(self):
        assert squeeze_check(F(1, 2), 20).certified

    def test_hundredth_ratio_bracket(self):
        r = squeeze_check(F(1, 100), 20)
        assert r.certified
        assert r.sin_over_h.lo > F(99998, 100000)
        assert r.sin_over_h.hi < 1

    def test_one(self):
        r = squeeze_check(F(1), 20)
        assert r.certified
        assert r.cos.contains(cos_partial_sum(1, 20))
        assert r.sin_over_h.contains(sin_partial_sum(1, 20))

    def test_one_minus_cos_bound(self):
        for h in (F(1, 100), F(1, 3), F(1), F(3, 2)):
            r = squeeze_check(h, 25)
            assert r.one_minus_cos_over_h.lo >= 0
            assert r.one_minus_cos_over_h.hi <= h / 2

    def test_domain(self):
        with pytest.raises(ValueError):
            squeeze_check(F(0), 10)
        with pytest.raises(ValueError):
            squeeze_check(F(2), 10)


class TestESandwich:
    def test_contains_e(self):
        oracle = exp_partial_sum(1, 40)
        for m in (3, 10, 64):
            iv = e_sandwich_enclosure(m)
            assert iv.lo < oracle < iv.hi

    def test_lower_bounds_increase(self):
        assert e_sandwich_enclosure(10).lo < e_sandwich_enclosure(100).lo
