"""One fresh workload process: import irratio from the checkout, warm up,
then run whole rounds of `irratio.cli.run([...])` in-process, one command
line at a time; a new round starts while less than --seconds have passed.

It prints `ready` once set-up is done (run.py times set-up up to that line)
and, unless --probe is given, writes to --out one JSON line per operation
(command line, exit code, output, latency) and a last line with the run's
totals.  Records go to the file as they are made, so they do not add to
this process's memory.  run.py checks the outputs in another process after
this one has ended.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.run(argv)
        latency = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), latency


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="file for the operation records")
    ap.add_argument("--probe", action="store_true",
                    help="stop after set-up")
    args = ap.parse_args()

    sys.path.insert(0, str(CHECKOUT / "src"))
    import irratio.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(CHECKOUT / "src"):
        sys.exit(f"irratio imported from {cli.__file__}, not from the checkout")
    from workloads import WARMUP, Plan

    plan = Plan(args.workload, args.seed)
    for argv in WARMUP[args.workload]:
        rc, _, err, _ = call(cli, argv)
        if rc != 0:
            sys.exit(f"warm-up {' '.join(argv)} exited {rc}: {err.strip()}")
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    with open(args.out, "w", encoding="utf-8") as records:
        start = time.perf_counter()
        round_s = []
        r = 0
        while time.perf_counter() - start < args.seconds:
            round_start = time.perf_counter()
            for argv in plan.round(r):
                if tracer:
                    tracer.begin_op()
                rc, out, err, latency = call(cli, argv)
                records.write(json.dumps({"argv": argv, "rc": rc, "out": out,
                                          "err": err, "latency_s": latency})
                              + "\n")
            round_s.append(time.perf_counter() - round_start)
            r += 1
        elapsed = time.perf_counter() - start
        totals = {
            "round_s": round_s,
            "elapsed_s": elapsed,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer:
            totals["trace"] = {
                "calls": tracer.calls,
                "self_s": tracer.self_s,
                "pi_passes_in_witness": tracer.pi_passes_in_witness,
                "pi_precisions": tracer.pi_precisions,
            }
        records.write(json.dumps({"totals": totals}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
