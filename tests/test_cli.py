import json
import math
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from irratio.cli import (parse_fraction, parse_interval_dict, run,
                         e_witness_report_dict, pi_witness_report_dict,
                         unlimited_int_str)
from irratio import pi_engine, polynomials, trigpoly, witness
from irratio.numbers import RationalInterval, to_decimal
from irratio.trigpoly import PiRat
from irratio.witness import e_witness, pi_witness

F = Fraction


def _pi_decimals(digits: int) -> str:
    """pi truncated to `digits` decimals, from mpmath."""
    with mpmath.workdps(digits + 20):
        scaled = int(mpmath.floor(mpmath.pi * mpmath.mpf(10) ** digits))
    text = str(scaled)
    return text[0] + "." + text[1:]


def _pi_quotients(depth: int) -> list[int]:
    """Continued-fraction quotients shared by the ends of a 3·depth+40
    digit mpmath bracket of pi."""
    digits = 3 * depth + 40
    with mpmath.workdps(digits + 10):
        scaled = int(mpmath.floor(mpmath.pi * mpmath.mpf(10) ** digits))
    lo, hi = F(scaled, 10 ** digits), F(scaled + 1, 10 ** digits)
    out = []
    while len(out) < depth and math.floor(lo) == math.floor(hi):
        q = math.floor(lo)
        out.append(q)
        lo, hi = 1 / (hi - q), 1 / (lo - q)
    return out


class TestParsing:
    def test_fraction(self):
        assert parse_fraction("19/7") == F(19, 7)
        assert parse_fraction("5") == F(5)

    @pytest.mark.parametrize("bad", ["1.5", "a/b", "1/2/3", "-1/2", "1/0", ""])
    def test_invalid_fraction(self, bad):
        with pytest.raises(ValueError):
            parse_fraction(bad)


class TestDigitsCommand:
    def test_pi(self, capsys):
        assert run(["digits", "pi", "--digits", "6"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("3.141592")
        assert run(["digits", "pi", "--digits", "150"]) == 0
        assert capsys.readouterr().out.strip() == _pi_decimals(150) + "…"

    @pytest.mark.parametrize("method", ["machin", "cos-root"])
    def test_pi_methods(self, capsys, method):
        assert run(["digits", "pi", "--digits", "6", "--method", method]) == 0
        assert capsys.readouterr().out.strip() == _pi_decimals(6) + "…"

    def test_pi_archimedes(self, capsys):
        assert run(["digits", "pi", "--digits", "6", "--method", "archimedes"]) == 0
        assert capsys.readouterr().out.startswith("3.141592")

    def test_e(self, capsys):
        assert run(["digits", "e", "--digits", "10"]) == 0
        assert capsys.readouterr().out.startswith("2.7182818284")

    def test_cap_exceeded(self, capsys, monkeypatch):
        monkeypatch.setenv("IRRATIO_MAX_DIGITS", "20")
        assert run(["digits", "pi", "--digits", "30"]) == 2

    def test_cap_override_allows(self, capsys, monkeypatch):
        monkeypatch.setenv("IRRATIO_MAX_DIGITS", "40")
        assert run(["digits", "e", "--digits", "30"]) == 0

    @pytest.mark.parametrize("method", ["archimedes", "cos-root"])
    def test_slow_route_refused_at_cap(self, capsys, method):
        start = time.perf_counter()
        assert run(["digits", "pi", "--method", method, "--digits", "4096"]) == 2
        assert time.perf_counter() - start < 1
        assert "limited to" in capsys.readouterr().err

    def test_e_4096(self, capsys):
        assert run(["digits", "e", "--digits", "4096"]) == 0
        with mpmath.workdps(4120):
            scaled = int(mpmath.floor(mpmath.e * mpmath.mpf(10) ** 4096))
        text = str(scaled)
        assert capsys.readouterr().out == f"{text[0]}.{text[1:]}…\n"


class TestWitnessCommand:
    def test_e_text(self, capsys):
        assert run(["witness", "e", "19/7"]) == 0
        out = capsys.readouterr().out
        assert "M = " in out and "-20" in out
        assert "CONTRADICTION" in out

    def test_e_json_roundtrip(self, capsys):
        assert run(["witness", "e", "19/7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["M"] == "-20"
        assert payload["verdict"] == "CONTRADICTION"
        report = e_witness(19, 7)
        assert payload == e_witness_report_dict(report)
        iv = parse_interval_dict(payload["tail_enclosure"])
        assert iv == report.tail_enclosure

    def test_pi2_json(self, capsys):
        assert run(["witness", "pi2", "1/1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == "3"
        assert payload["verdict"] == "CONTRADICTION"
        assert int(payload["N"]) == pi_witness(1, 1).N
        # round-trip through the parsers
        report = pi_witness(1, 1)
        assert payload == pi_witness_report_dict(report)

    def test_text_json_consistency(self, capsys):
        run(["witness", "e", "3/1"])
        text = capsys.readouterr().out
        run(["witness", "e", "3/1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert f"M = n!·a/b - sum(n!/k!) = {payload['M']}" in text
        assert payload["verdict"] in text

    def test_sqrt(self, capsys):
        assert run(["witness", "sqrt", "2"]) == 0
        assert "irrational" in capsys.readouterr().out
        assert run(["witness", "sqrt", "144"]) == 0
        assert "= 12" in capsys.readouterr().out

    def test_invalid_candidate(self, capsys):
        assert run(["witness", "e", "0/3"]) == 1
        assert run(["witness", "pi2", "1.5"]) == 1

    def test_invalid_override(self, capsys):
        assert run(["witness", "pi2", "10/1", "--n", "5"]) == 1

    def test_e_beyond_int_str_limit(self, capsys):
        # M of 1/2000 has about 5700 digits, past Python's 4300-digit
        # int->str limit; rendering lifts it and restores it afterwards
        limit = sys.get_int_max_str_digits()
        fact = math.factorial(2000)
        M = fact // 2000 - sum(fact // math.factorial(k) for k in range(2001))
        assert run(["witness", "e", "1/2000"]) == 0
        text = capsys.readouterr().out
        assert run(["witness", "e", "1/2000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sys.get_int_max_str_digits() == limit
        with unlimited_int_str():
            assert f"M = n!·a/b - sum(n!/k!) = {M}\n" in text
            assert int(payload["M"]) == M
        assert "verdict: CONTRADICTION" in text
        assert payload["verdict"] == "CONTRADICTION"

    def test_pi2_beyond_int_str_limit(self, capsys, monkeypatch):
        # a finished report with 4401-digit enclosure endpoints renders;
        # the report is built directly instead of by a long certificate run
        lo = F(3 * 10 ** 4400 + 1, 10 ** 4401)
        hi = F(3 * 10 ** 4400 + 3, 10 ** 4401)
        report = witness.PiWitnessReport(
            245, 1, 663, 0, PiRat(), RationalInterval(lo, hi),
            F(1, 2), witness.CONTRADICTION, 4157)
        monkeypatch.setattr(witness, "pi_witness", lambda *a, **k: report)
        assert run(["witness", "pi2", "245/1"]) == 0
        text = capsys.readouterr().out
        assert run(["witness", "pi2", "245/1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        with unlimited_int_str():
            assert f"I enclosure = [{lo}, {hi}]\n" in text
            assert payload == pi_witness_report_dict(report)
        assert "I enclosure ≈ 0.300000000000…" in text

    def test_huge_candidate_invalid(self, capsys):
        # parsing keeps Python's int->str limit: a 5000-digit numerator is
        # invalid input, rejected before any certificate work
        for kind in ("e", "pi2"):
            assert run(["witness", kind, "1" * 5000 + "/7"]) == 1
            assert "error:" in capsys.readouterr().err

    def test_pi2_cap_before_g(self, capsys, monkeypatch):
        # n = 270: the digits cap must stop the run before g is built
        def unreachable(*args):
            raise AssertionError("build_g called past the digits cap")

        monkeypatch.setattr(witness, "build_g", unreachable)
        monkeypatch.setenv("IRRATIO_MAX_DIGITS", "50")
        assert run(["witness", "pi2", "100/1"]) == 2
        assert "needs 1450 digits" in capsys.readouterr().err


class TestOtherCommands:
    def test_archimedes_table(self, capsys):
        assert run(["archimedes", "--doublings", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6  # header + doublings 0..4
        assert "96" in lines[-1]

    def test_archimedes_table_one_run(self, capsys, monkeypatch):
        starts = []
        doublings = pi_engine._polygon_doublings

        def counting(bits):
            starts.append(bits)
            return doublings(bits)

        monkeypatch.setattr(pi_engine, "_polygon_doublings", counting)
        assert run(["archimedes", "--doublings", "30", "--digits", "60"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(starts) == 1
        assert len(lines) == 32
        enc = pi_engine.archimedes_bounds(30, 60)
        assert lines[-1].split() == [
            str(6 * 2 ** 30), to_decimal(RationalInterval(enc.value.lo), 15),
            to_decimal(RationalInterval(enc.value.hi), 15)]

    @pytest.mark.parametrize("digits", ["0", "-4", "-5"])
    def test_archimedes_digits_below_one(self, capsys, digits):
        assert run(["archimedes", "--doublings", "2", "--digits", digits]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "digits must be >= 1" in captured.err

    def test_archimedes_digits_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("IRRATIO_MAX_DIGITS", "50")
        start = time.perf_counter()
        assert run(["archimedes", "--doublings", "3", "--digits", "4096"]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceed cap 50" in captured.err

    def test_archimedes_route_limit(self, capsys):
        # IRRATIO_MAX_DIGITS admits 4096, but the polygon route stops at
        # ROUTE_MAX_DIGITS["archimedes"] before any square root or output
        start = time.perf_counter()
        assert run(["archimedes", "--doublings", "60", "--digits", "4096"]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limited to 300 digits" in captured.err

    def test_archimedes_at_route_limit(self, capsys):
        assert run(["archimedes", "--doublings", "60", "--digits", "300"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 62

    def test_pascal(self, capsys):
        assert run(["pascal", "--rows", "5"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[-1].split() == ["1", "5", "10", "10", "5", "1"]

    def test_cf_pi(self, capsys):
        assert run(["cf", "pi", "--depth", "5"]) == 0
        out = capsys.readouterr().out
        assert "[3, 7, 15, 1, 292]" in out
        assert "355/113" in out

    def test_cf_pi_depth_50(self, capsys):
        assert run(["cf", "pi", "--depth", "50"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == f"quotients: {_pi_quotients(50)}"
        assert lines[-1] == "certified depth: 50"

    def test_cf_e(self, capsys):
        assert run(["cf", "e", "--depth", "8"]) == 0
        assert "[2, 1, 2, 1, 1, 4, 1, 1]" in capsys.readouterr().out

    def test_cf_e_depth_399(self, capsys):
        # e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]: 1, 2k, 1 for k = 1, 2, ...
        quotients = [2] + [q for k in range(1, 134) for q in (1, 2 * k, 1)][:398]
        lines = [f"quotients: {quotients}"]
        p, p_prev, q, q_prev = 1, 0, 0, 1
        for a in quotients:
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            whole, rem = divmod(p * 10 ** 12, q)
            decimal = f"{whole // 10 ** 12}.{whole % 10 ** 12:012d}"
            if rem:
                decimal += "…"
            else:
                decimal = decimal.rstrip("0").rstrip(".")
            lines.append(f"  {p}/{q} ≈ {decimal}")
        lines.append("certified depth: 399")
        assert run(["cf", "e", "--depth", "399"]) == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_check_identities(self, capsys):
        assert run(["check", "identities", "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 3

    def test_check_identities_builds_no_niven_poly(self, capsys, monkeypatch):
        # the endpoint tables and both identities run on integer tables of
        # n!·f, so no Fraction Niven polynomial is built on this path
        builds = []
        niven_poly = polynomials.niven_poly

        def counting(n):
            builds.append(n)
            return niven_poly(n)

        def off_path(*args, **kwargs):
            raise AssertionError("not on the check identities path")

        for module in (polynomials, witness):
            monkeypatch.setattr(module, "niven_poly", counting)
        monkeypatch.setattr(witness, "build_g", off_path)
        monkeypatch.setattr(trigpoly, "trig_derivative", off_path)
        assert run(["check", "identities", "--max-n", "12"]) == 0
        assert capsys.readouterr().out.count("pass") == 12
        assert builds == []

    def test_check_identities_max_n_60(self, capsys):
        start = time.perf_counter()
        assert run(["check", "identities", "--max-n", "60"]) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out.splitlines() == [
            f"n={n}: differential identity pass; endpoint derivatives integral"
            for n in range(1, 61)]
        assert elapsed < 10

    def test_check_identities_max_n_100(self, capsys):
        start = time.perf_counter()
        assert run(["check", "identities", "--max-n", "100"]) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out.splitlines() == [
            f"n={n}: differential identity pass; endpoint derivatives integral"
            for n in range(1, 101)]
        assert elapsed < 10

    def test_check_squeeze(self, capsys):
        assert run(["check", "squeeze", "--h", "1/2"]) == 0
        assert "certified" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_bad_flag_value(self, capsys):
        assert run(["pascal", "--rows", "-3"]) == 1
