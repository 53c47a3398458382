"""Seeded job lists of the four workloads.

A job is one argv for `fractal_trees.cli.main`.  A workload's job list
is an endless sequence of batches drawn from `random.Random` seeded with
the workload name and the seed, so the same seed always gives the same
jobs.  Every batch of a workload has the same composition (which
structure, which command, which stratum of levels); the seed draws the
levels inside each stratum and the order.  That keeps the cost of a
batch nearly independent of the seed, so runs with different seeds are
comparable, while the inputs still vary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import PENTA_PATH, SG3_PATH

FOUR = ("sierpinski", "nonpcf_sg", "diamond", "hexagasket")
SIX = FOUR + ("interval", "tree3")

# one line each, the same text as the workloads' "why" in BENCHMARK.json
WHY = {
    "explore": (
        "a user trying structures: decimate and count n <= 10 on six builtins, sg3 and the "
        "refused pentagasket; derive dominates, spectrum is negligible"
    ),
    "deep-count": (
        "count n in [110, 120] and [240, 250] on the four builtins: one spectrum built from "
        "scratch to depth n dominates; derive is small, no oracle runs"
    ),
    "entropy-sweep": (
        "entropy n in [60, 120] at 30 and 300 digits: many cached incremental spectrum "
        "reads, tau assembled n - 1 times, mpmath logs"
    ),
    "certify": (
        "verify --max-level 2 and 3 on the four builtins and sg3: Kirchhoff and charpoly "
        "oracles dominate; spectrum and tau run only to level 30"
    ),
}


# wall seconds one batch took at the seed commit on the tuning machine
# (2-core x86-64 shared with other tenants, Python 3.11); a run holds
# round(--seconds / this) batches, so its work does not depend on speed
NOMINAL_BATCH_S = {
    "explore": 8.0,
    "deep-count": 15.0,
    "entropy-sweep": 10.0,
    "certify": 26.0,
}


@dataclass(frozen=True)
class Job:
    argv: tuple  # (command, fractal, options...)

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def fractal(self) -> str:
        """Builtin name or JSON path, as given on the command line."""
        return self.argv[1]


def _decimate(f):
    return Job(("decimate", f, "-n", "2", "--format", "json"))


def _count(f, n, fmt):
    return Job(("count", f, "-n", str(n), "--format", fmt))


# the level n <= 10 at which tau(G_n) has 4,300 to 10,000 digits: Python
# refuses to print such an integer, so a text-format count there fails
CRASH_BAND = {"sierpinski": 8, "nonpcf_sg": 5, "hexagasket": 5, "tree3": 9, SG3_PATH: 5}


def _explore(rng):
    jobs = []
    # exactly one text count per batch falls in the crash band, so the
    # known failure shows at the same rate whatever the seed
    crashing = rng.choice(sorted(CRASH_BAND))
    for f in SIX + (SG3_PATH,):
        if f == crashing:
            k = CRASH_BAND[f]
        else:
            k = rng.choice([k for k in range(1, 11) if k != CRASH_BAND.get(f)])
        jobs.append(_decimate(f))
        jobs.append(_count(f, k, "text"))
        jobs.append(_count(f, rng.randint(1, 10), "json"))
    # the refusal costs as much as a hexagasket batch by itself: one per batch
    jobs.append(rng.choice([
        _decimate(PENTA_PATH),
        _count(PENTA_PATH, rng.randint(1, 10), "text"),
        _count(PENTA_PATH, rng.randint(1, 10), "json"),
    ]))
    return jobs


def _deep_count(rng):
    # one level from each end of [100, 250]; the low end sets the median.
    # The program's digit count is exact in [110, 120] for sierpinski only
    # and at no level of [240, 250], so the known digits failure shows in
    # 7 of the 8 jobs whatever the seed; diamond's is still exact at 100
    # and 101, so a stratum from 100 would make that rate seed-dependent.
    return [
        _count(f, n, "json")
        for f in FOUR
        for n in (rng.randint(110, 120), rng.randint(240, 250))
    ]


def _entropy_sweep(rng):
    # one level from each end of [60, 120], each at one of the precisions
    jobs = []
    for f in FOUR:
        precs = [30, 300]
        rng.shuffle(precs)
        for n, prec in zip((rng.randint(60, 65), rng.randint(115, 120)), precs):
            jobs.append(Job(("entropy", f, "-n", str(n), "--prec", str(prec), "--format", "json")))
    return jobs


def _certify(rng):
    def verify(f, level):
        return Job(("verify", f, "--max-level", str(level)))

    return [verify(f, level) for f in FOUR + (SG3_PATH,) for level in (2, 3)]


MAKERS = {
    "explore": _explore,
    "deep-count": _deep_count,
    "entropy-sweep": _entropy_sweep,
    "certify": _certify,
}


def batches(workload: str, seed: int):
    """Endless generator of shuffled batches for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    make = MAKERS[workload]
    while True:
        batch = make(rng)
        rng.shuffle(batch)
        yield batch
