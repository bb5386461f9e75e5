"""Tests of the benchmark's oracle and workload generator against known
values.  They import nothing from irratio."""

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import oracle
import run
from workloads import E_FAIL_FIRST, Plan, WORKLOADS


def test_niven_index_of_known_candidates():
    assert oracle.niven_n(10) == 26
    assert [oracle.niven_n(a) for a in range(5, 11)] == [13, 16, 18, 21, 24, 26]


def _niven_N_by_polynomial(a: int, b: int, n: int) -> Fraction:
    """g(0) + g(1) from the expanded polynomial, differentiated term-wise."""
    coeffs = [Fraction(0)] * (2 * n + 1)
    for j in range(n + 1):
        coeffs[n + j] = Fraction((-1) ** j * math.comb(n, j), math.factorial(n))
    total = Fraction(0)
    d = coeffs
    for k in range(n + 1):
        at0, at1 = d[0] if d else 0, sum(d)
        total += (-1) ** k * Fraction(a, b) ** (n - k) * (at0 + at1)
        d = [i * (i - 1) * c for i, c in enumerate(d)][2:]
    return b ** n * total


@pytest.mark.parametrize("a,b", [(5, 1), (7, 3), (10, 1), (10, 97)])
def test_niven_N_matches_expanded_polynomial(a, b):
    n = oracle.niven_n(a)
    assert oracle.niven_N(a, b, n) == _niven_N_by_polynomial(a, b, n)


def test_niven_integral_matches_closed_form():
    # ∫_0^1 f sin(πx) dx = 2 Σ_k (-1)^k f^(2k)(0) / π^(2k+1)
    a, n = 10, 26
    with mpmath.workdps(200):
        closed = 2 * sum((-1) ** k * oracle.niven_derivative_at_0(n, 2 * k)
                         / mpmath.pi ** (2 * k + 1) for k in range(n + 1))
        closed *= mpmath.pi * mpmath.mpf(a) ** n
        assert abs(oracle.niven_integral(a, n) / closed - 1) < mpmath.mpf("1e-40")


def test_e_witness_known_value():
    assert oracle.e_witness_M(19, 7) == -20
    assert 0 < oracle.e_tail(7) < mpmath.mpf(1) / 7


def test_continued_fractions():
    assert oracle.pi_quotients(5) == [3, 7, 15, 1, 292]
    assert oracle.e_quotients(9) == [2, 1, 2, 1, 1, 4, 1, 1, 6]
    assert oracle.convergents([3, 7, 15, 1]) == [3, Fraction(22, 7),
                                                  Fraction(333, 106),
                                                  Fraction(355, 113)]


def test_digits_check():
    argv = ["digits", "pi", "--digits", "6"]
    assert oracle.check(argv, "3.141592…\n") is None
    assert oracle.check(argv, "3.141593…\n") is not None  # rounded, not truncated
    # the 6th decimal of pi is 2 and the 7th is 6: a decimal short is
    # possible for an enclosure as wide as 1e-6, two short are not
    assert oracle.check(argv, "3.14159…\n") is None
    assert oracle.check(argv, "3.1415…\n") is not None
    assert oracle.check(argv, "3.141592\n") is not None   # no ellipsis
    # 31 decimals of pi end in ...79|5028: an enclosure narrower than 1e-31
    # may straddle 3.1415926535897932384626433832795 and certify only 30
    argv = ["digits", "pi", "--digits", "31"]
    assert oracle.check(argv, "3.141592653589793238462643383279…") is None


def test_identities_check():
    lines = "".join(f"n={n}: differential identity pass; endpoint derivatives "
                    f"integral\n" for n in range(1, 4))
    argv = ["check", "identities", "--max-n", "3"]
    assert oracle.check(argv, lines) is None
    assert oracle.check(argv, lines.replace("n=2: differential identity pass",
                                            "n=2: differential identity FAIL")) \
        is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plan_is_seeded(workload):
    first = [Plan(workload, 7).round(r) for r in range(3)]
    again = [Plan(workload, 7).round(r) for r in range(3)]
    assert first == again


@pytest.mark.parametrize("workload", ["pi2-witness", "constants"])
def test_no_command_line_repeats(workload):
    plan = Plan(workload, 3)
    rounds = 6 if workload == "pi2-witness" else 16
    lines = [" ".join(argv) for r in range(rounds) for argv in plan.round(r)]
    assert len(lines) == len(set(lines))


def test_constants_rounds_hold_one_seed_independent_failing_op():
    for seed in (1, 2):
        plan = Plan("constants", seed)
        for r in range(4):
            ops = plan.round(r)
            assert len(ops) == 20
            failing = [op for op in ops
                       if op[:2] == ["witness", "e"] and op[2].startswith("1/")]
            assert failing == [["witness", "e", f"1/{E_FAIL_FIRST + r}", "--json"]]


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    layer = ([f"{n}.calls" for n in run.LAYER_CALLS]
             + [f"{n}.self_s" for n in run.LAYER_SELF] + [run.PI_PASSES])
    assert [m["name"] for m in spec["per_layer"]] == layer
