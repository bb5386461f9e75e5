import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irratio import witness
from irratio.combinatorics import factorial
from irratio.pi_engine import PrecisionExhausted, pi_enclosure
from irratio.polynomials import niven_poly, nth_derivative
from irratio.trigpoly import (PiPoly, PiRat, TrigPoly, antiderivative_p_sin,
                              definite_01, pirat_substitute_pi2,
                              trig_derivative)
from irratio.witness import (CONTRADICTION, IdentityReport, build_g,
                             choose_niven_n, e_witness, niven_g_table,
                             pi_witness, verify_ode_identity)

F = Fraction


def _reference_first_mismatch(left: PiPoly, right: PiPoly, label: str):
    n = max(len(left.coeffs), len(right.coeffs))
    for i in range(n):
        cl, cr = left.coeff(i), right.coeff(i)
        if cl != cr:
            exps = sorted(set(cl.exponents) | set(cr.exponents))
            for e in exps:
                if cl.coeff(e) != cr.coeff(e):
                    return (label, i, e)
    return None


def reference_verify_ode_identity(a: int, b: int, n: int,
                                  g_override: PiPoly | None = None):
    """The identity checks in the PiPoly/TrigPoly ring: the symbolic
    reference for verify_ode_identity's integer tables."""
    f = niven_poly(n)
    g = build_g(a, b, n) if g_override is None else g_override
    rhs = PiPoly.from_poly(f, PiRat.term(b ** n, 2 * n + 2))

    lhs_ode = g.derivative().derivative() + g.scale(PiRat.term(1, 2))
    mism = _reference_first_mismatch(lhs_ode, rhs, "ode")
    ode_ok = mism is None

    T = TrigPoly(g.derivative(), g.scale(PiRat.term(-1, 1)))
    dT = trig_derivative(T)
    mism2 = _reference_first_mismatch(dT.sin_part, rhs, "antiderivative-sin")
    if mism2 is None and not dT.cos_part.is_zero:
        mism2 = _reference_first_mismatch(dT.cos_part, PiPoly(),
                                          "antiderivative-cos")
    anti_ok = mism2 is None

    return IdentityReport(n, ode_ok, anti_ok, mism or mism2)


def run_under_O(script: str) -> subprocess.CompletedProcess:
    """Run script in a fresh `python -O` with irratio importable."""
    src = str(Path(witness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


def closed_form_N(a: int, b: int, n: int) -> int:
    """N = b^n Σ_k (-1)^k (a/b)^(n-k)·2f^(2k)(0) for the Niven polynomial
    f of index n, where f^(l)(0) = (-1)^(l-n)·C(n, l-n)·l!/n! for n <= l."""
    total = 0
    for k in range(n + 1):
        ell = 2 * k
        if ell < n:
            continue
        f_at_0 = ((-1) ** (ell - n) * math.comb(n, ell - n)
                  * math.factorial(ell) // math.factorial(n))
        total += (-1) ** k * a ** (n - k) * b ** k * 2 * f_at_0
    return total


@pytest.fixture
def pi_requests(monkeypatch):
    """Digits of every pi_enclosure call made by the witness module."""
    choose_niven_n(1, 1)  # certifies 22/7 once, outside the count
    requested = []

    def counting(precision_digits, *args, **kwargs):
        requested.append(precision_digits)
        return pi_enclosure(precision_digits, *args, **kwargs)

    monkeypatch.setattr(witness, "pi_enclosure", counting)
    return requested


class TestChooseNivenN:
    def test_ten(self):
        # oracle: exact linear search over (22/7)*10^n/n! < 1
        n = 1
        while F(22, 7) * 10 ** n >= factorial(n):
            n += 1
        assert n == 26
        assert choose_niven_n(10, 1) == 26

    def test_one(self):
        # (22/7)/3! < 1 already holds at n=3, not earlier
        assert F(22, 7) * 1 >= factorial(2)
        assert F(22, 7) * 1 < factorial(3)
        assert choose_niven_n(1, 1) == 3

    def test_monotone_in_a(self):
        assert choose_niven_n(2, 1) >= choose_niven_n(1, 1)


class TestBuildG:
    def test_n1_structure(self):
        # hand expansion: g = b*(Pi^2 (x - x^2) + 2) for f = x - x^2
        for b in (1, 3):
            g = build_g(1, b, 1)
            assert g.coeff(0) == PiRat({0: 2 * b})
            assert g.coeff(1) == PiRat({2: b})
            assert g.coeff(2) == PiRat({2: -b})

    def test_highest_pi_power_is_f_term(self):
        n, b = 3, 2
        g = build_g(1, b, n)
        f = niven_poly(n)
        for j in range(2 * n + 1):
            assert g.coeff(j).coeff(2 * n) == b ** n * f.coeff(j)

    def test_g0_substituted(self):
        g = build_g(7, 4, 1)
        assert pirat_substitute_pi2(g(0), F(7, 4)) == 8  # 2b


class TestNivenGTable:
    @pytest.mark.parametrize("b", [1, 2, 7])
    def test_is_n_factorial_times_build_g(self, b):
        for n in range(1, 16):
            table = niven_g_table(b, n)
            assert all(table.values())
            assert table == {
                (i, e): c * factorial(n)
                for i, r in enumerate(build_g(1, b, n).coeffs)
                for e, c in r.items()}

    def test_n1_by_hand(self):
        # 1!·g = b·(Pi^2 (x - x^2) + 2) for f = x - x^2
        assert niven_g_table(3, 1) == {(0, 0): 6, (1, 2): 3, (2, 2): -3}

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            niven_g_table(1, 0)


class TestOdeIdentity:
    @pytest.mark.parametrize("n", range(1, 61))
    def test_passes(self, n):
        assert verify_ode_identity(1, 1, n).passed

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 12), a=st.integers(1, 50), b=st.integers(1, 50),
           perturb=st.booleans(), data=st.data())
    def test_equals_reference(self, n, a, b, perturb, data):
        g = None
        if perturb:
            # one coefficient changed, at any x-power up to past deg g and
            # any pi-exponent, odd and negative ones included
            g = build_g(a, b, n)
            i = data.draw(st.integers(0, 2 * n + 3), label="x-power")
            e = data.draw(st.integers(-3, 2 * n + 5), label="pi-exponent")
            delta = data.draw(st.fractions(max_denominator=30).filter(bool),
                              label="delta")
            coeffs = list(g.coeffs) + [PiRat()] * (i + 1 - len(g.coeffs))
            coeffs[i] = coeffs[i] + PiRat.term(delta, e)
            g = PiPoly(coeffs)
        report = verify_ode_identity(a, b, n, g_override=g)
        assert report == reference_verify_ode_identity(a, b, n, g_override=g)
        assert report.passed == (not perturb)

    def test_other_candidates(self):
        assert verify_ode_identity(5, 3, 4).passed

    def test_negative_control_locates_mismatch(self):
        n = 2
        g = build_g(1, 1, n)
        # drop the k=1 term (-1)^1 Pi^(2n-2) f'' from g
        term = PiPoly.from_poly(nth_derivative(niven_poly(n), 2),
                                PiRat.term(-1, 2 * n - 2))
        report = verify_ode_identity(1, 1, n, g_override=g - term)
        assert not report.passed
        assert report.first_mismatch is not None
        assert report == reference_verify_ode_identity(1, 1, n, g - term)

    def test_identity_at_zero(self):
        # specialization x=0: g''(0) + Pi^2 g(0) = b^n Pi^(2n+2) f(0) = 0
        n, b = 3, 2
        g = build_g(1, b, n)
        assert g.derivative().derivative()(0) + g(0).shift(2) == PiRat()


class TestPiWitness:
    def test_candidate_one(self):
        r = pi_witness(1, 1)
        assert r.n == 3
        assert isinstance(r.N, int)
        assert r.upper_bound < 1
        assert r.I_enclosure.strictly_inside(0, 1)
        assert r.verdict == CONTRADICTION

    def test_central_equality_routes(self):
        # the cross-assert lives inside pi_witness; also check explicitly
        for a, b, n in [(2, 1, 4), (3, 2, 5), (7, 5, 3)]:
            I_exact = definite_01(
                antiderivative_p_sin(niven_poly(n))).shift(1) * a ** n
            g = build_g(a, b, n)
            cand = F(a, b)
            assert pirat_substitute_pi2(I_exact, cand) == \
                pirat_substitute_pi2(g(0), cand) + pirat_substitute_pi2(g(1), cand)

    def test_even_powers_only(self):
        for n in range(1, 13):
            I_exact = definite_01(
                antiderivative_p_sin(niven_poly(n))).shift(1)
            assert all(e % 2 == 0 for e in I_exact.exponents)

    def test_integrality_of_g_endpoints(self):
        for a, b, n in [(2, 1, 2), (10, 3, 4), (89, 9, 5)]:
            g = build_g(a, b, n)
            cand = F(a, b)
            assert pirat_substitute_pi2(g(0), cand).denominator == 1
            assert pirat_substitute_pi2(g(1), cand).denominator == 1

    def test_invalid_override(self):
        with pytest.raises(ValueError):
            pi_witness(10, 1, n_override=5)

    def test_precision_cap(self):
        with pytest.raises(PrecisionExhausted):
            pi_witness(10, 1, max_pi_digits=8)

    def test_invalid_candidate(self):
        with pytest.raises(ValueError):
            pi_witness(0, 1)

    def test_cap_raises_before_evaluation(self, pi_requests):
        with pytest.raises(PrecisionExhausted):
            pi_witness(10, 1, max_pi_digits=8)
        assert pi_requests == []


class TestPiWitnessOnePass:
    @pytest.mark.parametrize("a, b", [(11, 1), (11, 6), (12, 5), (12, 7),
                                      (20, 3), (20, 7)])
    def test_beyond_benchmark_range(self, a, b, pi_requests):
        r = pi_witness(a, b)
        assert r.n == choose_niven_n(a, b)
        assert r.verdict == CONTRADICTION
        assert r.N == closed_form_N(a, b, r.n)
        assert r.I_enclosure.strictly_inside(0, r.upper_bound)
        assert pi_requests == [r.pi_digits]
        assert r.pi_digits == witness._pi_digits_up_front(r.I_exact, a, r.n)


class TestPiWitnessClosedForm:
    def test_n134(self):
        r = pi_witness(50, 1)
        assert r.n == 134
        assert r.verdict == CONTRADICTION
        assert r.N == closed_form_N(50, 1, 134)

    def test_tables_match_antiderivative(self):
        # the old symbolic route, TrigPoly antiderivative and endpoint
        # evaluation, is the oracle for I_exact; n = 1, 2 admit no candidate
        for n in range(3, 31):
            a = max(a for a in range(1, 11)
                    if F(22, 7) * a ** n < factorial(n))
            r = pi_witness(a, 1, n_override=n)
            assert r.I_exact == definite_01(
                antiderivative_p_sin(niven_poly(n))).shift(1) * a ** n


class TestEWitness:
    def test_nineteen_sevenths(self):
        r = e_witness(19, 7)
        assert r.n == 7
        assert r.M == -20
        assert r.tail_enclosure.strictly_inside(F(140, 1000), F(141, 1000))
        assert r.verdict == CONTRADICTION

    def test_three_over_one(self):
        r = e_witness(3, 1)
        assert r.n == 1
        assert r.M == 1
        assert r.tail_enclosure.strictly_inside(0, 1)
        assert r.verdict == CONTRADICTION

    def test_tail_bound_up_to_fifty(self):
        for b in range(1, 51):
            r = e_witness(3 * b, b)
            assert r.tail_enclosure.strictly_inside(0, F(1, b))

    def test_invalid(self):
        with pytest.raises(ValueError):
            e_witness(1, 0)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=1, max_value=400).flatmap(
        lambda b: st.tuples(st.integers(min_value=1, max_value=4 * b),
                            st.just(b))))
    def test_M_closed_form(self, ab):
        a, b = ab
        fact = math.factorial(b)
        r = e_witness(a, b)
        assert r.M == fact * a // b - sum(fact // math.factorial(k)
                                          for k in range(b + 1))
        assert r.verdict == CONTRADICTION

    def test_checks_survive_python_O(self):
        # negative control: a tail routine returning [0, 2] must make
        # e_witness raise even when python -O strips assert statements
        script = (
            "assert False, 'assert statements are still active'\n"
            "from irratio import witness\n"
            "from irratio.numbers import RationalInterval\n"
            "witness.e_tail_enclosure = lambda n: RationalInterval(0, 2)\n"
            "try:\n"
            "    witness.e_witness(3, 1)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n")
        proc = run_under_O(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised: tail enclosure must lie in (0, 1/n)\n"


class TestPiWitnessUnderO:
    def test_checks_survive_python_O(self):
        # negative control: g with 1 added to its constant coefficient must
        # break the central equality even when python -O strips asserts
        script = (
            "assert False, 'assert statements are still active'\n"
            "from irratio import witness\n"
            "build_g = witness.build_g\n"
            "def perturbed(a, b, n):\n"
            "    g = build_g(a, b, n)\n"
            "    return witness.PiPoly([g.coeff(0) + 1, *g.coeffs[1:]])\n"
            "witness.build_g = perturbed\n"
            "try:\n"
            "    witness.pi_witness(5, 1)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n")
        proc = run_under_O(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("raised: central equality N = g(0)+g(1) "
                               "failed between independent routes\n")


class TestEndpointTablesUnderO:
    def test_checks_survive_python_O(self):
        # negative control: a reflection that breaks the symmetry
        # f(1-x) = f(x) must make the endpoint tables raise even when
        # python -O strips assert statements
        script = (
            "assert False, 'assert statements are still active'\n"
            "from irratio import polynomials\n"
            "reflect = polynomials.reflect_integers\n"
            "def perturbed(cs):\n"
            "    q = reflect(cs)\n"
            "    return [q[0] + 1, *q[1:]]\n"
            "polynomials.reflect_integers = perturbed\n"
            "try:\n"
            "    polynomials.niven_endpoint_derivatives(3)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n")
        proc = run_under_O(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("raised: Niven polynomial must be symmetric "
                               "under x -> 1-x\n")
