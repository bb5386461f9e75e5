"""irratio benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pi2-witness --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
(worker.py) that import irratio from ./src and call `irratio.cli.run` in a
closed loop with a single client.  This process never imports irratio: it
times set-up, then checks every output against oracle.py after the worker
has ended, and prints one JSON object as its last line of output.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
worker wraps irratio's public functions (tracer.py) and the metrics are the
per-layer calls and self time, per operation attempted.  Raw records and a
summary of each run go to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
RUNS = HERE / "runs"

# Set-up is measured in this many fresh processes per run (the timed worker
# is one of them) and reported as their median.
SETUP_SAMPLES = 7
# Limits on one worker process, far above what a run takes today.
READY_TIMEOUT_S = 60
RUN_SLACK_S = 90

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# Layer metrics reported by the traced run.  Each names the module that
# defines the function, whichever namespace the call went through.
LAYER_CALLS = [
    "pi_engine.pi_enclosure", "series.cos_enclosure", "combinatorics.binomial",
    "combinatorics.factorial", "combinatorics.pascal_rows",
    "witness.pi_witness", "witness.e_witness", "witness.verify_ode_identity",
]
LAYER_SELF = [
    "pi_engine.pi_enclosure", "pi_engine.pi_by_cos_root",
    "pi_engine.continued_fraction", "series.cos_enclosure",
    "series.e_enclosure", "numbers.iv_sqrt", "numbers.to_decimal",
    "trigpoly.pirat_eval_interval", "trigpoly.antiderivative_p_sin",
    "trigpoly.definite_01", "trigpoly.pirat_substitute_pi2",
    "trigpoly.trig_derivative", "polynomials.niven_poly",
    "polynomials.nth_derivative", "polynomials.niven_endpoint_derivatives",
    "polynomials.reflect", "combinatorics.binomial",
    "combinatorics.pascal_rows", "combinatorics.factorial",
    "witness.pi_witness", "witness.build_g", "witness.verify_ode_identity",
    "witness.e_witness", "cli.run",
]
PI_PASSES = "witness.pi_passes_per_cert"


class BenchError(RuntimeError):
    """The run could not be completed; no result is printed."""


def start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready` line; return it and the
    seconds from its start to that line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=CHECKOUT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            proc.wait(timeout=READY_TIMEOUT_S)
            raise BenchError(f"worker exited {proc.returncode} before set-up ended")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")


def measure(args, out_file: Path) -> tuple[list[float], dict, list[dict]]:
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(args, ["--probe"])
            finish(proc, READY_TIMEOUT_S)
            setups.append(setup)
    proc, setup = start_worker(args, ["--out", str(out_file)])
    finish(proc, args.seconds + RUN_SLACK_S)
    setups.append(setup)
    lines = out_file.read_text(encoding="utf-8").splitlines()
    ops = [json.loads(line) for line in lines[:-1]]
    totals = json.loads(lines[-1])["totals"]
    return setups, totals, ops


def repeat_share(precisions: list[list[int]]) -> float | None:
    """Share of operations that requested π only at precisions an earlier
    operation of the run had already requested."""
    seen: set[int] = set()
    asked = repeats = 0
    for digits in precisions:
        if digits:
            asked += 1
            repeats += all(d in seen for d in digits)
            seen.update(digits)
    return repeats / asked if asked else None


def layer_metrics(trace: dict, attempted: int) -> dict:
    calls, self_s = trace["calls"], trace["self_s"]
    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = {"value": calls[name] / attempted,
                                    "unit": "count"}
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = {"value": self_s[name] / attempted,
                                     "unit": "s"}
    witnesses = calls["witness.pi_witness"]
    metrics[PI_PASSES] = {
        "value": trace["pi_passes_in_witness"] / witnesses if witnesses else 0,
        "unit": "count"}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # the e-witness outputs carry integers of several thousand digits
    sys.set_int_max_str_digits(0)

    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups, totals, ops = measure(args, RUNS / f"{stem}.jsonl")
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    wrong = []
    latencies = []
    failed = 0
    for op in ops:
        if op["rc"] != 0:
            failed += 1
            continue
        latencies.append(op["latency_s"])
        try:
            reason = oracle.check(op["argv"], op["out"])
        except (ValueError, KeyError, IndexError, SyntaxError,
                ArithmeticError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            wrong.append({"argv": op["argv"], "reason": reason})
    attempted = len(ops)
    if not latencies:
        print("benchmark run failed: no operation completed", file=sys.stderr)
        return 1

    # completed operations per round over the median round's duration: every
    # round has the same make-up, and the median discards rounds that ran
    # while the machine was busy with other work
    rounds = totals["round_s"]
    ops_per_s = len(latencies) / len(rounds) / statistics.median(rounds)
    if args.trace:
        metrics = layer_metrics(totals["trace"], attempted)
    else:
        values = {"ops_per_s": ops_per_s,
                  "latency_p50_s": statistics.median(latencies),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": totals["peak_rss_kb"] / 1024}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}

    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "round_s": totals["round_s"], "elapsed_s": totals["elapsed_s"],
               "ops_per_s": ops_per_s, "setups_s": setups,
               "failed_ops": [op["argv"] for op in ops if op["rc"] != 0],
               "wrong": wrong, "metrics": metrics}
    if args.trace:
        summary["pi_precisions"] = totals["trace"]["pi_precisions"]
        summary["pi_precision_repeat_share"] = repeat_share(
            totals["trace"]["pi_precisions"])
        summary["layers"] = {"calls": totals["trace"]["calls"],
                             "self_s": totals["trace"]["self_s"]}
    (RUNS / f"{stem}.summary.json").write_text(json.dumps(summary, indent=1))

    for w in wrong:
        print(f"WRONG {' '.join(w['argv'])}: {w['reason']}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
