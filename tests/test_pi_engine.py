from fractions import Fraction
from itertools import islice

import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irratio import pi_engine
from irratio.numbers import RationalInterval, iv_sqrt
from irratio.pi_engine import (ROUTE_MAX_DIGITS, PrecisionExhausted,
                               archimedes_bounds, archimedes_table,
                               continued_fraction, pi_by_cos_root,
                               pi_enclosure, rhind_value)

F = Fraction

ARCHIMEDES_LOWER = F(31408450, 10 ** 7)
ARCHIMEDES_UPPER = F(31428572, 10 ** 7)


class TestCosRoot:
    def test_six_digits(self):
        iv = pi_by_cos_root(6).value
        assert iv.lo >= F(3141592, 10 ** 6)
        assert iv.hi <= F(3141593, 10 ** 6)

    def test_one_digit(self):
        iv = pi_by_cos_root(1).value
        assert iv.lo >= F(31, 10) and iv.hi <= F(32, 10)

    def test_historical_approximations_sides(self):
        iv = pi_by_cos_root(3).value
        assert F(314, 100) < iv.lo
        assert iv.hi < F(22, 7)


class TestArchimedes:
    def test_96gon_inside_historical_bounds(self):
        iv = archimedes_bounds(4).value
        assert ARCHIMEDES_LOWER <= iv.lo and iv.hi <= ARCHIMEDES_UPPER

    def test_hexagon(self):
        iv = archimedes_bounds(0).value
        assert iv.lo == 3
        # circumscribed hexagon semiperimeter 2*sqrt(3)
        assert F(34641, 10 ** 4) < iv.hi < F(34642, 10 ** 4)

    def test_ten_doublings(self):
        iv = archimedes_bounds(10).value
        assert iv.width < F(1, 10 ** 5)
        iv.intersect(pi_by_cos_root(8).value)  # raises if disjoint

    def test_monotone_refinement(self):
        prev = archimedes_bounds(0, 30).value
        for d in range(1, 9):
            cur = archimedes_bounds(d, 30).value
            slack = cur.width + prev.width
            assert cur.lo >= prev.lo - slack
            assert cur.hi <= prev.hi + slack
            assert cur.width < prev.width
            prev = cur

    def test_doublings_cap(self):
        with pytest.raises(ValueError):
            archimedes_bounds(61)


class TestArchimedesTable:
    @pytest.mark.parametrize("doublings, digits", [(10, 20), (30, 60), (6, 300)])
    def test_rows_equal_bounds(self, doublings, digits):
        table = archimedes_table(doublings, digits)
        assert [enc.effort for enc in table] == list(range(doublings + 1))
        for d, enc in enumerate(table):
            assert enc == archimedes_bounds(d, digits)

    def test_integer_bit_sizing_keeps_rows(self):
        # reference: the rows at the former float sizing int(3.33·d) + 16
        for digits in range(1, 61):
            rows = islice(pi_engine._polygon_doublings(int(digits * 3.33) + 16),
                          11)
            assert archimedes_table(10, digits) == [
                pi_engine.PiEnclosure(RationalInterval(b.lo, a.hi),
                                      "archimedes", k)
                for k, (b, a) in enumerate(rows)]

    @pytest.mark.parametrize("digits", [0, -4, -5])
    def test_rejects_digits_below_one(self, digits):
        with pytest.raises(ValueError):
            archimedes_table(2, digits)


class TestArchimedesOnePass:
    @pytest.mark.parametrize("digits", [20, 51, 72])
    def test_width_overlap_and_one_pass(self, digits, monkeypatch):
        # one square root for the hexagon, then one per doubling: a restart
        # from the hexagon would take more
        roots = []

        def counting(x, precision):
            roots.append(precision)
            return iv_sqrt(x, precision)

        monkeypatch.setattr(pi_engine, "iv_sqrt", counting)
        enc = pi_enclosure(digits, "archimedes")
        assert enc.method == "archimedes"
        assert enc.value.width < F(1, 10 ** digits)
        enc.value.intersect(pi_enclosure(digits, "machin").value)
        assert len(roots) == enc.effort + 1

    @pytest.mark.parametrize("digits", [0, -1])
    def test_invalid_precision(self, digits):
        with pytest.raises(ValueError):
            pi_enclosure(digits, "archimedes")

    def test_stall_raises(self, monkeypatch):
        # at a third of the bits the rounding noise outgrows the gap long
        # before 10**-51
        doublings = pi_engine._polygon_doublings
        monkeypatch.setattr(pi_engine, "_polygon_doublings",
                            lambda bits: doublings(bits // 3))
        with pytest.raises(PrecisionExhausted):
            pi_enclosure(51, "archimedes")


class TestRouteLimits:
    @pytest.mark.parametrize("method", sorted(ROUTE_MAX_DIGITS))
    def test_refuses_before_any_work(self, method, monkeypatch):
        def unreachable(*args):
            raise AssertionError("route started past its digits limit")

        monkeypatch.setattr(pi_engine, "iv_sqrt", unreachable)
        monkeypatch.setattr(pi_engine, "cos_enclosure", unreachable)
        for digits in (ROUTE_MAX_DIGITS[method] + 1, 4096):
            start = time.perf_counter()
            with pytest.raises(PrecisionExhausted, match="limited to"):
                pi_enclosure(digits, method)
            assert time.perf_counter() - start < 1

    def test_table_refuses_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("table started past its digits limit")

        monkeypatch.setattr(pi_engine, "iv_sqrt", unreachable)
        for digits in (ROUTE_MAX_DIGITS["archimedes"] + 1, 4096):
            with pytest.raises(PrecisionExhausted, match="limited to 300"):
                archimedes_table(60, digits)


class TestCrossMethod:
    @pytest.mark.parametrize("digits", [4, 8, 12])
    def test_methods_agree(self, digits):
        a = pi_by_cos_root(digits).value
        b = pi_enclosure(digits, "archimedes").value
        c = pi_enclosure(digits, "machin").value
        overlap = a.intersect(b).intersect(c)
        assert a.contains(overlap.midpoint)
        assert b.contains(overlap.midpoint)
        assert c.contains(overlap.midpoint)


def _check_machin(digits: int) -> None:
    """The Machin enclosure is narrower than 10**-digits and contains pi,
    compared at a binary precision at which mpmath holds both dyadic
    endpoints exactly."""
    iv = pi_enclosure(digits).value
    assert iv.width < F(1, 10 ** digits)
    bits = max(iv.lo.numerator.bit_length(), iv.hi.numerator.bit_length())
    with mpmath.workprec(bits + 64):
        lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
        hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
        assert lo < mpmath.pi < hi


class TestMachin:
    def test_is_default(self):
        assert pi_enclosure(10).method == "machin"

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=1, max_value=2000))
    def test_contains_pi_and_is_narrow(self, digits):
        _check_machin(digits)

    @pytest.mark.parametrize("digits", [72, 1000, 4096])
    def test_explicit_precisions(self, digits):
        _check_machin(digits)

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            pi_enclosure(0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            pi_enclosure(5, "leibniz")


class TestRhind:
    def test_value(self):
        assert rhind_value() == F(256, 81)

    def test_decimal_prefix(self):
        # long-division oracle: 256/81 = 3.160493827...
        num = 256 * 10 ** 6
        assert num // 81 == 3160493
        from irratio.numbers import to_decimal
        assert to_decimal(RationalInterval(rhind_value()), 6).startswith("3.160493")

    def test_certifiably_not_pi(self):
        assert rhind_value() > archimedes_bounds(4).value.hi


class TestContinuedFraction:
    def test_point_22_7(self):
        cf = continued_fraction(RationalInterval(F(22, 7)), 10)
        assert cf.partial_quotients == [3, 7]
        assert cf.convergents == [F(3), F(22, 7)]

    def test_point_integer(self):
        cf = continued_fraction(RationalInterval(F(2)), 5)
        assert cf.partial_quotients == [2]

    def test_pi_expansion(self):
        cf = continued_fraction(pi_enclosure(15).value, 5)
        assert cf.partial_quotients == [3, 7, 15, 1, 292]
        assert F(22, 7) in cf.convergents
        assert F(355, 113) in cf.convergents

    def test_convergent_quality(self):
        iv = pi_enclosure(20).value
        cf = continued_fraction(iv, 8)
        mid = iv.midpoint
        for c in cf.convergents:
            assert abs(mid - c) < F(1, c.denominator ** 2)

    def test_euclid_oracle(self):
        # quotients of a point rational must match the Euclidean algorithm
        for num, den in [(355, 113), (649, 200), (1, 7), (8, 5)]:
            expected = []
            a, b = num, den
            while b:
                expected.append(a // b)
                a, b = b, a % b
            cf = continued_fraction(RationalInterval(F(num, den)), 20)
            assert cf.partial_quotients == expected
            assert cf.convergents[-1] == F(num, den)


def two_branch_continued_fraction(x: RationalInterval, max_depth: int) -> list[int]:
    """Reference: the earlier continued_fraction, with a separate Euclidean
    loop for point intervals and a Fraction Gauss map for proper ones."""
    quotients: list[int] = []
    lo, hi = x.lo, x.hi
    if lo == hi:
        r = lo
        while len(quotients) < max_depth:
            a = r.__floor__()
            quotients.append(a)
            r -= a
            if r == 0:
                break
            r = 1 / r
    else:
        while len(quotients) < max_depth:
            flo, fhi = lo.__floor__(), hi.__floor__()
            if flo != fhi:
                break
            quotients.append(flo)
            rlo, rhi = lo - flo, hi - fhi
            if rlo == 0 or rhi == 0:
                break
            lo, hi = 1 / rhi, 1 / rlo
    return quotients


def euclid(v: Fraction) -> list[int]:
    num, den = v.numerator, v.denominator
    out = []
    while den:
        out.append(num // den)
        num, den = den, num % den
    return out


def convergents_by_evaluation(quotients: list[int]) -> list[Fraction]:
    """Each convergent evaluated from the innermost quotient outward."""
    out = []
    for k in range(1, len(quotients) + 1):
        value = F(quotients[k - 1])
        for a in reversed(quotients[:k - 1]):
            value = a + 1 / value
        out.append(value)
    return out


@st.composite
def cf_intervals(draw):
    """Points, near-points (width down to 10**-40) and wide intervals,
    negative ones included."""
    lo = F(draw(st.integers(-10 ** 30, 10 ** 30)), draw(st.integers(1, 10 ** 30)))
    kind = draw(st.sampled_from(["point", "narrow", "wide"]))
    if kind == "point":
        width = F(0)
    elif kind == "narrow":
        width = F(draw(st.integers(0, 1000)), 10 ** draw(st.integers(3, 40)))
    else:
        width = F(draw(st.integers(0, 10 ** 6)), draw(st.integers(1, 10 ** 3)))
    return RationalInterval(lo, lo + width)


class TestContinuedFractionProperties:
    @settings(max_examples=200, deadline=None)
    @given(cf_intervals(), st.integers(1, 60))
    def test_matches_two_branch_version(self, x, depth):
        cf = continued_fraction(x, depth)
        assert cf.partial_quotients == two_branch_continued_fraction(x, depth)
        assert cf.certified_depth == len(cf.partial_quotients)
        assert cf.convergents == convergents_by_evaluation(cf.partial_quotients)

    @settings(max_examples=150, deadline=None)
    @given(cf_intervals(), st.integers(1, 60),
           st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9))
    def test_quotients_prefix_every_member(self, x, depth, t):
        quotients = continued_fraction(x, depth).partial_quotients
        for v in (x.lo, x.hi, x.lo + t * x.width):
            assert euclid(v)[:len(quotients)] == quotients
