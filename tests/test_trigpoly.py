import random
from fractions import Fraction

import pytest

from irratio.numbers import RationalInterval
from irratio.pi_engine import archimedes_bounds, pi_enclosure
from irratio.polynomials import Poly, niven_poly
from irratio.trigpoly import (PI_SYMBOL, PiPoly, PiRat, TrigPoly,
                              antiderivative_p_sin, definite_01,
                              pirat_eval_interval, pirat_substitute_pi2,
                              trig_derivative)

F = Fraction


def pipoly(*scalars):
    return PiPoly([PiRat.from_rational(F(s)) for s in scalars])


def rand_pipoly(rng, max_degree=12):
    coeffs = []
    for _ in range(rng.randint(1, max_degree + 1)):
        terms = {rng.randint(-3, 3): F(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(rng.randint(0, 3))}
        coeffs.append(PiRat(terms))
    return PiPoly(coeffs)


class TestPiRat:
    def test_arithmetic(self):
        x = PiRat({2: F(1), 0: F(3)})
        y = PiRat({-1: F(2)})
        assert (x * y).items() == [(-1, F(6)), (1, F(2))]
        assert (x + x) == x * 2
        assert x - x == PiRat()

    def test_substitute(self):
        assert pirat_substitute_pi2(PiRat({2: 1, 0: 1}), F(5, 3)) == F(8, 3)
        assert pirat_substitute_pi2(PiRat({-2: 1}), F(9)) == F(1, 9)

    def test_substitute_odd_exponent(self):
        with pytest.raises(ValueError):
            pirat_substitute_pi2(PiRat({-1: 2}), F(1))


class TestTrigDerivative:
    def test_sin(self):
        d = trig_derivative(TrigPoly(pipoly(1), PiPoly()))
        assert d.sin_part.is_zero
        assert d.cos_part == PiPoly([PI_SYMBOL])

    def test_cos(self):
        d = trig_derivative(TrigPoly(PiPoly(), pipoly(1)))
        assert d.sin_part == PiPoly([PI_SYMBOL * -1])
        assert d.cos_part.is_zero

    def test_x_sin_product_rule(self):
        d = trig_derivative(TrigPoly(pipoly(0, 1), PiPoly()))
        assert d.sin_part == pipoly(1)
        assert d.cos_part == PiPoly([PiRat(), PI_SYMBOL])


class TestAntiderivative:
    def test_constant(self):
        T = antiderivative_p_sin(Poly([1]))
        assert T.sin_part.is_zero
        assert T.cos_part == PiPoly([PiRat({-1: -1})])

    def test_linear(self):
        T = antiderivative_p_sin(Poly([0, 1]))
        assert T.sin_part == PiPoly([PiRat({-2: 1})])
        assert T.cos_part == PiPoly([PiRat(), PiRat({-1: -1})])

    def test_roundtrip_random(self):
        rng = random.Random(41)
        for _ in range(100):
            p = rand_pipoly(rng)
            T = antiderivative_p_sin(p)
            back = trig_derivative(T)
            assert back.sin_part == p
            assert back.cos_part.is_zero

    def test_linearity(self):
        rng = random.Random(43)
        for _ in range(20):
            p, q = rand_pipoly(rng, 6), rand_pipoly(rng, 6)
            s = PiRat({rng.randint(-2, 2): F(rng.randint(1, 5))})
            lhs = definite_01(antiderivative_p_sin(p.scale(s) + q))
            rhs = s * definite_01(antiderivative_p_sin(p)) \
                + definite_01(antiderivative_p_sin(q))
            assert lhs == rhs


class TestDefiniteIntegral:
    def test_sin(self):
        T = antiderivative_p_sin(Poly([1]))
        assert definite_01(T) == PiRat({-1: 2})

    def test_x_sin(self):
        T = antiderivative_p_sin(Poly([0, 1]))
        assert definite_01(T) == PiRat({-1: 1})

    def test_pure_sin_vanishes(self):
        T = TrigPoly(pipoly(1, 2, -3), PiPoly())
        assert definite_01(T) == PiRat()


class TestIntervalEvaluation:
    def test_two_over_pi(self):
        iv = pirat_eval_interval(PiRat({-1: 2}), pi_enclosure(8).value)
        assert iv.lo > F(63661, 10 ** 5)
        assert iv.hi < F(63662, 10 ** 5)

    def test_constant(self):
        iv = pirat_eval_interval(PiRat({0: 1}), pi_enclosure(4).value)
        assert iv == RationalInterval(1, 1)

    def test_pi_squared_at_archimedes(self):
        iv = pirat_eval_interval(PiRat({2: 1}), archimedes_bounds(4).value)
        assert iv.lo > F(98649, 10 ** 4)
        assert iv.hi < F(98776, 10 ** 4)

    def test_division_by_zero_straddle(self):
        with pytest.raises(Exception):
            pirat_eval_interval(PiRat({-1: 1}), RationalInterval(-1, 1))


class TestQuadratureCrossCheck:
    def test_niven_integrals_match_simpson(self):
        from quadrature_oracle import simpson_niven_sin_integral
        pi_iv = pi_enclosure(20).value
        for n in range(1, 7):
            exact = definite_01(antiderivative_p_sin(niven_poly(n)))
            iv = pirat_eval_interval(exact, pi_iv)
            oracle = simpson_niven_sin_integral(n)
            assert abs(F(oracle) - iv.midpoint) < F(1, 10 ** 10)
