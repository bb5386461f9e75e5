"""Seeded command lines for each workload, grouped in rounds.

A run executes whole rounds until its time is up.  Every round of a
workload has the same make-up (the same operation kinds in the same
numbers, sizes drawn from the same bands), so throughput and the share of
failed operations do not depend on how many rounds fit in a run.  The same
seed gives the same rounds.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("pi2-witness", "constants", "identities")

# One untimed operation per operation kind, run before timing starts.  The
# sizes lie outside the timed bands, so no warm-up line recurs as a timed one.
WARMUP = {
    "pi2-witness": [["witness", "pi2", "4/1", "--json"]],
    "constants": [
        ["digits", "pi", "--digits", "10"],
        ["digits", "pi", "--digits", "10", "--method", "archimedes"],
        ["digits", "e", "--digits", "10"],
        ["cf", "pi", "--depth", "3"],
        ["cf", "e", "--depth", "3"],
        ["witness", "e", "3/1", "--json"],
    ],
    "identities": [["check", "identities", "--max-n", "5"]],
}

# Candidates a/b per round of pi2-witness, by a.  Cost grows steeply with a
# (0.1 s at a = 5, 4 s at a = 10), so the cheap a = 5 and a = 6 come three
# times a round: the median latency then falls among the a = 6 operations
# instead of between two single operations of different cost.
PI2_PER_ROUND = {5: 3, 6: 3, 7: 1, 8: 1, 9: 1, 10: 1}

# witness e 1/b fails at these b: len(str(b!)) exceeds Python's 4300-digit
# int->str limit.  Round r uses b = 1559 + r, whatever the seed, so the
# failures are the same in every run.
E_FAIL_FIRST, E_FAIL_LAST = 1559, 1700


class Band:
    """`per_round` values a round takes from [lo, hi].

    The band is cut into per_round equal strata and each stratum is a seeded
    permutation, so every round takes one value from each stratum and no
    value recurs until a stratum is used up.
    """

    def __init__(self, rng: random.Random, lo: int, hi: int, per_round: int):
        width = (hi - lo + 1) // per_round
        self.strata = []
        for j in range(per_round):
            values = list(range(lo + j * width, lo + (j + 1) * width))
            rng.shuffle(values)
            self.strata.append(values)

    def take(self, r: int) -> list[int]:
        return [s[r % len(s)] for s in self.strata]


class Plan:
    """The rounds of one workload for one seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(seed)
        rng = self.rng
        if workload == "pi2-witness":
            self.pi2_b = {}
            for a in PI2_PER_ROUND:
                bs = [b for b in range(1, 61) if math.gcd(a, b) == 1]
                rng.shuffle(bs)
                self.pi2_b[a] = bs
        elif workload == "constants":
            # 16 or more values per stratum: a run holds 8 to 11 rounds today
            self.bands = {
                "cos-root": Band(rng, 20, 51, 2),
                "archimedes": Band(rng, 20, 51, 2),
                "digits-e": Band(rng, 1000, 2999, 4),
                "cf-pi": Band(rng, 5, 20, 1),
                "cf-e": Band(rng, 100, 399, 4),
                "witness-e": Band(rng, 900, 1535, 6),
            }

    def round(self, r: int) -> list[list[str]]:
        """The command lines of round r, in run order.  Call in order r = 0,
        1, 2, ...: later rounds draw on the same random stream."""
        rng = self.rng
        if self.workload == "pi2-witness":
            ops = []
            for a, count in PI2_PER_ROUND.items():
                bs = self.pi2_b[a]
                ops += [["witness", "pi2", f"{a}/{bs[(count * r + j) % len(bs)]}",
                         "--json"] for j in range(count)]
        elif self.workload == "identities":
            ops = [["check", "identities", "--max-n", str(m)]
                   for m in range(15, 26)]
        else:
            take = {k: band.take(r) for k, band in self.bands.items()}
            ops = [["digits", "pi", "--digits", str(d)]
                   for d in take["cos-root"]]
            ops += [["digits", "pi", "--digits", str(d), "--method", "archimedes"]
                    for d in take["archimedes"]]
            ops += [["digits", "e", "--digits", str(d)] for d in take["digits-e"]]
            ops += [["cf", "pi", "--depth", str(k)] for k in take["cf-pi"]]
            ops += [["cf", "e", "--depth", str(k)] for k in take["cf-e"]]
            for b in take["witness-e"]:
                a = rng.randrange(2 * b, 3 * b)
                while math.gcd(a, b) != 1:
                    a += 1
                ops.append(["witness", "e", f"{a}/{b}", "--json"])
            span = E_FAIL_LAST - E_FAIL_FIRST + 1
            ops.append(["witness", "e", f"1/{E_FAIL_FIRST + r % span}", "--json"])
        rng.shuffle(ops)
        return ops
