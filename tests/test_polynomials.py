import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irratio.combinatorics import binomial, factorial
from irratio.polynomials import (EndpointDerivatives, Poly, derivative,
                                 niven_endpoint_derivatives, niven_poly,
                                 nth_derivative, reflect, reflect_integers)

F = Fraction

rationals = st.fractions(max_denominator=10 ** 6)
polys = st.lists(rationals, max_size=40).map(Poly)


def comb_reflect(cs: list) -> list:
    """q_j = (-1)^j Σ_{i>=j} C(i, j)·c_i, the reflection x -> 1-x by
    binomial sums."""
    return [(-1) ** j * sum(math.comb(i, j) * cs[i] for i in range(j, len(cs)))
            for j in range(len(cs))]


def reference_endpoint_derivatives(n: int) -> EndpointDerivatives:
    """The endpoint tables from the Fraction Niven polynomial, reflected by
    binomial sums, with every check of niven_endpoint_derivatives."""
    f = niven_poly(n)
    assert f.degree == 2 * n
    refl = Poly(comb_reflect(list(f.coeffs)))
    assert refl == f
    at0, at1 = [], []
    for l in range(2 * n + 1):
        v0 = factorial(l) * f.coeff(l)
        v1 = (-1) ** l * factorial(l) * refl.coeff(l)
        assert v0.denominator == 1 and v1.denominator == 1
        if l < n:
            assert v0 == 0
        else:
            sign = -1 if (n - l) % 2 else 1
            assert v0 == F(binomial(n, l - n) * sign * factorial(l),
                           factorial(n))
        at0.append(int(v0))
        at1.append(int(v1))
    return EndpointDerivatives(at0, at1)


class TestEval:
    def test_x_minus_x_squared_at_half(self):
        assert Poly([0, 1, -1])(F(1, 2)) == F(1, 4)

    def test_constant_coefficient_at_zero(self):
        assert Poly([F(7, 3), 5, -2])(0) == F(7, 3)

    def test_niven_numerator_at_one(self):
        # x^2 - 2x^3 + x^4 vanishes at 1
        assert Poly([0, 0, 1, -2, 1])(1) == 0


class TestDerivative:
    def test_power_rule(self):
        assert derivative(Poly.x_power(5)) == Poly.x_power(4, 5)

    def test_constant(self):
        assert derivative(Poly([3])) == Poly()

    def test_x_minus_x_squared(self):
        assert derivative(Poly([0, 1, -1])) == Poly([1, -2])

    def test_second_derivative_of_x5(self):
        assert nth_derivative(Poly.x_power(5), 2) == Poly.x_power(3, 20)

    def test_nth_equals_factorial(self):
        for n in range(1, 10):
            assert nth_derivative(Poly.x_power(n), n) == Poly([factorial(n)])

    def test_order_above_degree(self):
        assert nth_derivative(Poly.x_power(3), 4) == Poly()

    def test_monomial_closed_form(self):
        # repeated derivative vs n!/(n-l)! x^(n-l)
        for n in range(12):
            for l in range(2 * n + 2):
                got = nth_derivative(Poly.x_power(n), l)
                if l <= n:
                    expected = Poly.x_power(
                        n - l, factorial(n) // factorial(n - l))
                else:
                    expected = Poly()
                assert got == expected


class TestReflect:
    def test_x(self):
        assert reflect(Poly([0, 1])) == Poly([1, -1])

    def test_x_squared(self):
        assert reflect(Poly.x_power(2)) == Poly([1, -2, 1])

    def test_niven_symmetry(self):
        assert reflect(niven_poly(2)) == niven_poly(2)

    @settings(deadline=None, max_examples=100)
    @given(polys)
    def test_involution(self, p):
        assert reflect(reflect(p)) == p

    @settings(deadline=None, max_examples=100)
    @given(polys, rationals)
    def test_value_at_one_minus_x(self, p, x):
        assert reflect(p)(x) == p(1 - x)


class TestReflectIntegers:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=60))
    def test_equals_binomial_sums(self, cs):
        assert reflect_integers(cs) == comb_reflect(cs)


class TestNivenPoly:
    def test_n1(self):
        assert niven_poly(1) == Poly([0, 1, -1])

    def test_n2(self):
        assert niven_poly(2) == Poly([0, 0, F(1, 2), -1, F(1, 2)])

    def test_leading_coefficient(self):
        for n in range(1, 12):
            lead = niven_poly(n).coeff(2 * n)
            assert lead == F((-1) ** n, factorial(n))

    def test_bounded_on_unit_interval(self):
        points = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        for n in range(1, 11):
            f = niven_poly(n)
            for x in points:
                v = f(x)
                assert 0 <= v <= F(1, factorial(n))
                if x in (0, 1):
                    assert v == 0


class TestEndpointDerivatives:
    def test_n1(self):
        d = niven_endpoint_derivatives(1)
        assert d.at0 == [0, 1, -2]
        assert d.at1 == [0, -1, -2]

    def test_n2_values(self):
        d = niven_endpoint_derivatives(2)
        assert d.at0[2] == 1
        assert d.at0[3] == -6
        assert d.at0[4] == 12

    def test_vanishing_below_n(self):
        for n in range(1, 8):
            d = niven_endpoint_derivatives(n)
            assert all(v == 0 for v in d.at0[:n])

    def test_integrality_symmetry_closed_form(self):
        for n in range(1, 21):
            d = niven_endpoint_derivatives(n)
            for l in range(2 * n + 1):
                assert isinstance(d.at0[l], int)
                assert d.at1[l] == (-1) ** l * d.at0[l]
                if n <= l <= 2 * n:
                    sign = -1 if (n - l) % 2 else 1
                    closed = F(binomial(n, l - n) * sign * factorial(l),
                               factorial(n))
                    assert d.at0[l] == closed


class TestEndpointDerivativesReference:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 80))
    def test_equals_fraction_reference(self, n):
        assert niven_endpoint_derivatives(n) == reference_endpoint_derivatives(n)
