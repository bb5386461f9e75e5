"""Command-line front end.

Exit codes: 0 success (a CONTRADICTION verdict is the expected, successful
outcome), 1 invalid input, 2 resource or precision cap reached.  Fractions
on the command line are written A/B with decimal integer parts; there is no
floating-point input anywhere.  JSON output renders arbitrary-precision
integers as decimal strings and intervals as {"lo": "p/q", "hi": "p/q"}.
Witness reports render without Python's int->str digit limit; parsing of
the command line keeps it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from . import combinatorics, pi_engine, series, witness
from .numbers import RationalInterval, to_decimal
from .pi_engine import PrecisionExhausted

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RESOURCE = 2


class CliError(ValueError):
    """Invalid command-line input."""


def max_digits_cap() -> int:
    raw = os.environ.get("IRRATIO_MAX_DIGITS")
    if raw is None:
        return witness.DEFAULT_MAX_PI_DIGITS
    try:
        cap = int(raw)
    except ValueError:
        raise CliError(f"IRRATIO_MAX_DIGITS must be an integer, got {raw!r}")
    if cap < 1:
        raise CliError("IRRATIO_MAX_DIGITS must be positive")
    return cap


def parse_fraction(text: str) -> Fraction:
    parts = text.split("/")
    if len(parts) > 2 or not all(p.isdigit() and p for p in parts):
        raise CliError(f"expected a fraction A/B with decimal integers, got {text!r}")
    if len(parts) == 1:
        return Fraction(int(parts[0]))
    num, den = int(parts[0]), int(parts[1])
    if den == 0:
        raise CliError("fraction denominator must be nonzero")
    return Fraction(num, den)


def fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def interval_dict(iv: RationalInterval) -> dict:
    return {"lo": fraction_str(iv.lo), "hi": fraction_str(iv.hi)}


def parse_interval_dict(d: dict) -> RationalInterval:
    return RationalInterval(parse_fraction(d["lo"]), parse_fraction(d["hi"]))


def pi_witness_report_dict(r: witness.PiWitnessReport) -> dict:
    return {
        "a": str(r.a),
        "b": str(r.b),
        "n": str(r.n),
        "N": str(r.N),
        "I_enclosure": interval_dict(r.I_enclosure),
        "upper_bound": fraction_str(r.upper_bound),
        "verdict": r.verdict,
    }


def e_witness_report_dict(r: witness.EWitnessReport) -> dict:
    return {
        "a": str(r.a),
        "b": str(r.b),
        "n": str(r.n),
        "M": str(r.M),
        "tail_enclosure": interval_dict(r.tail_enclosure),
        "verdict": r.verdict,
    }


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


@contextlib.contextmanager
def unlimited_int_str():
    """Lift Python's int->str digit limit while a finished report renders.

    Certificates carry integers of any size (M of `witness e 1/b`, the
    enclosure endpoints of `witness pi2`); input parsing keeps the limit.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# -- subcommand handlers ---------------------------------------------------

def _over_digits_cap(digits: int) -> bool:
    cap = max_digits_cap()
    if digits > cap:
        print(f"requested digits exceed cap {cap}", file=sys.stderr)
    return digits > cap


def cmd_digits(args) -> int:
    if _over_digits_cap(args.digits):
        return EXIT_RESOURCE
    if args.constant == "e":
        iv = series.e_enclosure(args.digits).value
    else:
        iv = pi_engine.pi_enclosure(args.digits, args.method).value
    print(to_decimal(iv, args.digits))
    return EXIT_OK


def cmd_witness(args) -> int:
    if args.kind == "sqrt":
        m = int(args.candidate)
        result = combinatorics.sqrt_rationality(m)
        if args.json:
            _print_json({"m": str(m),
                         "root": None if result.root is None else str(result.root),
                         "verdict": "PERFECT_SQUARE" if result.is_perfect_square
                         else "IRRATIONAL"})
        elif result.is_perfect_square:
            print(f"sqrt({m}) = {result.root} (perfect square, rational)")
        else:
            print(f"sqrt({m}) is irrational: a rational square root of an "
                  f"integer must be an integer, and no integer squares to {m}")
        return EXIT_OK

    frac = parse_fraction(args.candidate)
    a, b = frac.numerator, frac.denominator
    if a < 1:
        raise CliError("candidate must be a positive fraction A/B")
    if args.kind == "pi2":
        report = witness.pi_witness(a, b, n_override=args.n,
                                    max_pi_digits=max_digits_cap())
    else:
        report = witness.e_witness(a, b)
    with unlimited_int_str():
        if args.json:
            _print_json(pi_witness_report_dict(report) if args.kind == "pi2"
                        else e_witness_report_dict(report))
        elif args.kind == "pi2":
            print(f"candidate pi^2 = {a}/{b}")
            print(f"n = {report.n}")
            print(f"N = g(0)+g(1) = {report.N}")
            print(f"I enclosure = [{report.I_enclosure.lo}, {report.I_enclosure.hi}]")
            print(f"I enclosure ≈ {to_decimal(report.I_enclosure, 12)}")
            print(f"upper bound pi·a^n/n! = {report.upper_bound} < 1")
            print(f"verdict: {report.verdict}")
        else:
            print(f"candidate e = {a}/{b}")
            print(f"n = {report.n}")
            print(f"M = n!·a/b - sum(n!/k!) = {report.M}")
            print(f"tail enclosure = [{report.tail_enclosure.lo}, "
                  f"{report.tail_enclosure.hi}]")
            print(f"tail enclosure ≈ {to_decimal(report.tail_enclosure, 12)}")
            print(f"verdict: {report.verdict}")
    return EXIT_OK


def cmd_archimedes(args) -> int:
    if not 0 <= args.doublings <= 60:
        raise CliError("doublings must be between 0 and 60")
    if args.digits < 1:
        raise CliError("digits must be >= 1")
    if _over_digits_cap(args.digits):
        return EXIT_RESOURCE
    table = pi_engine.archimedes_table(args.doublings, args.digits)
    print(f"{'sides':>10} {'lower':>22} {'upper':>22}")
    for enc in table:
        sides = 6 * 2 ** enc.effort
        print(f"{sides:>10} {to_decimal(RationalInterval(enc.value.lo), 15):>22}"
              f" {to_decimal(RationalInterval(enc.value.hi), 15):>22}")
    return EXIT_OK


def cmd_pascal(args) -> int:
    if args.rows < 0:
        raise CliError("rows must be non-negative")
    triangle = combinatorics.pascal_rows(args.rows)
    width = len(str(max(triangle.rows[-1])))
    for row in triangle.rows:
        print(" ".join(f"{v:>{width}}" for v in row))
    return EXIT_OK


def cmd_cf(args) -> int:
    if args.depth < 1:
        raise CliError("depth must be >= 1")
    cap = max_digits_cap()
    digits = min(2 * args.depth + 15, cap)
    if args.constant == "pi":
        iv = pi_engine.pi_enclosure(digits).value
    else:
        iv = series.e_enclosure(digits).value
    cf = pi_engine.continued_fraction(iv, args.depth)
    print("quotients:", cf.partial_quotients)
    for q, c in zip(cf.partial_quotients, cf.convergents):
        print(f"  {c.numerator}/{c.denominator} ≈ "
              f"{to_decimal(RationalInterval(c), 12)}")
    print(f"certified depth: {cf.certified_depth}")
    return EXIT_OK


def cmd_check_identities(args) -> int:
    if args.max_n < 1:
        raise CliError("--max-n must be >= 1")
    from .polynomials import niven_endpoint_derivatives
    ok = True
    for n in range(1, args.max_n + 1):
        report = witness.verify_ode_identity(1, 1, n)
        niven_endpoint_derivatives(n)  # raises on any non-integral value
        status = "pass" if report.passed else "FAIL"
        ok = ok and report.passed
        print(f"n={n}: differential identity {status}; "
              f"endpoint derivatives integral")
    return EXIT_OK if ok else EXIT_INVALID


def cmd_check_squeeze(args) -> int:
    h = parse_fraction(args.h)
    if not 0 < h <= Fraction(3, 2):
        raise CliError("--h must satisfy 0 < h <= 3/2")
    report = series.squeeze_check(h, args.digits)
    print(f"h = {h}")
    print(f"cos(h) ⊂ [{report.cos.lo}, {report.cos.hi}]")
    print(f"sin(h)/h ⊂ [{report.sin_over_h.lo}, {report.sin_over_h.hi}]")
    print(f"(1-cos h)/h ⊂ [{report.one_minus_cos_over_h.lo}, "
          f"{report.one_minus_cos_over_h.hi}], bound h/2 = {h / 2}")
    print(f"status: {report.status}")
    return EXIT_OK if report.certified else EXIT_RESOURCE


# -- argument parsing ------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="irratio",
                     description="Exact-arithmetic irrationality certificates "
                                 "for pi and e")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("digits", help="certified decimal digits of e or pi")
    p.add_argument("constant", choices=["e", "pi"])
    p.add_argument("--digits", type=int, default=10)
    p.add_argument("--method", choices=["machin", "cos-root", "archimedes"],
                   default="machin")
    p.set_defaults(func=cmd_digits)

    p = sub.add_parser("witness", help="contradiction certificate for a "
                                       "rational candidate")
    p.add_argument("kind", choices=["pi2", "e", "sqrt"])
    p.add_argument("candidate", help="A/B (pi2, e) or integer M (sqrt)")
    p.add_argument("--n", type=int, default=None,
                   help="override the Niven index (pi2 only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("archimedes", help="polygon-doubling bounds table")
    p.add_argument("--doublings", type=int, required=True)
    p.add_argument("--digits", type=int, default=20)
    p.set_defaults(func=cmd_archimedes)

    p = sub.add_parser("pascal", help="Pascal's triangle")
    p.add_argument("--rows", type=int, required=True)
    p.set_defaults(func=cmd_pascal)

    p = sub.add_parser("cf", help="certified continued-fraction convergents")
    p.add_argument("constant", choices=["pi", "e"])
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("check", help="verification suites")
    check_sub = p.add_subparsers(dest="check_command", required=True,
                                 parser_class=_Parser)
    pc = check_sub.add_parser("identities")
    pc.add_argument("--max-n", type=int, default=10)
    pc.set_defaults(func=cmd_check_identities)
    pc = check_sub.add_parser("squeeze")
    pc.add_argument("--h", required=True, help="rational P/Q with 0 < h <= 3/2")
    pc.add_argument("--digits", type=int, default=30)
    pc.set_defaults(func=cmd_check_squeeze)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # CliError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PrecisionExhausted as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
