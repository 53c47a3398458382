"""Structure mutants through `derive`, the level walk and its jump, each
under its own deadline.

Each input is one of eight base structures (the six builtins, sg3 and
SG_{2,4}) with one or two mutations: an edge weight changed, two corners
of a cell swapped, an edge added, an edge dropped, or two boundary entries
swapped.  An input is invalid (`validate` refuses it), refused (`derive`
or the walk raises one of the refusals the CLI prints as an `error:`
line), or it derives and walks.  A walk counts as restarted when a
relation among its states was withheld and its window began again, as
certified when it jumped by level 40 without that, and as stepping when it
did not jump.  For an input that derives, the walk's `factors()` equal
the stepping reference walk's (`tests/test_level_tables.py`) at levels
0..12, both refusing at the same level if one does, and `tau` equals the
Kirchhoff count of G_n wherever |V_n| <= 400.  A mismatch, an input past
its deadline or any other exception fails.

The inputs are drawn from `random.Random(seed)`, so a seed always makes
the same ones.  For a larger sweep than tier-1's, run

    PYTHONPATH=src python tests/test_fuzz.py --seeds 8 --inputs 2000

which prints the outcome counts per seed and exits 1 on any failure.
"""

import argparse
import random
import signal
import sys
from collections import Counter
from pathlib import Path

from fractal_trees import build_level, builtin, counting, derive, tau, tau_bruteforce
from fractal_trees.counting import AssemblyError, LevelWalk
from fractal_trees.levels import vertex_count_formula
from fractal_trees.structures import BUILTIN_NAMES, SelfSimilarStructure, load_json, validate
from test_generalization import gasket
from test_level_tables import RefLevelWalk

DATA = Path(__file__).resolve().parent / "data"
# what `cli.main` prints as one `error:` line with exit 1 or 2
REFUSALS = (ValueError, AssemblyError, AssertionError)
# seconds per input; the slowest of 2,000 inputs took 0.023 s (Python 3.11.7)
BUDGET = 2
OUTCOMES = ("invalid", "refused", "certified", "stepping", "restarted")


class Mismatch(Exception):
    """The walk, the reference walk and the Kirchhoff count disagree."""


class Hang(Exception):
    """An input ran past its deadline."""


class Watched(LevelWalk):
    """A level walk that counts the restarts of its window of states."""

    restarts = 0

    def _watch(self):
        kept = self.states is not None and len(self.states)
        super()._watch()
        # a window that held a state grows by one unless it restarts
        if kept and not self.jumps and self.states is not None and len(self.states) == 1:
            self.restarts += 1


def bases() -> list[SelfSimilarStructure]:
    return [*(builtin(name) for name in BUILTIN_NAMES), gasket(2, 3),
            load_json(str(DATA / "sg_2_4.json"))]


def mutant(rng: random.Random, s: SelfSimilarStructure, tag: str) -> SelfSimilarStructure:
    edges = [list(e) for e in s.edges1]
    boundary, cells = list(s.boundary), [list(cm) for cm in s.cell_maps]
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(5)
        if kind == 0:  # an edge weight changed
            e = rng.choice(edges)
            e[2] = rng.choice([w for w in range(1, e[2] + 3) if w != e[2]])
        elif kind == 1:  # two corners of a cell swapped
            cm = rng.choice(cells)
            i, j = rng.sample(range(len(cm)), 2)
            cm[i], cm[j] = cm[j], cm[i]
        elif kind == 2:  # an edge added
            edges.append([*rng.sample(range(s.v1_size), 2), 1])
        elif kind == 3 and len(edges) > 1:  # an edge dropped
            del edges[rng.randrange(len(edges))]
        else:  # two boundary entries swapped
            i, j = rng.sample(range(len(boundary)), 2)
            boundary[i], boundary[j] = boundary[j], boundary[i]
    return SelfSimilarStructure.create(
        f"{s.name}~{tag}", s.m, s.v0_size, s.v1_size, edges, boundary, cells)


def _level(read):
    """("value", read()) or "refused"."""
    try:
        return "value", read()
    except REFUSALS:
        return "refused"


def outcome(s: SelfSimilarStructure) -> str:
    """One of OUTCOMES for s; raises Mismatch on a disagreement."""
    if not validate(s).ok:
        return "invalid"
    try:
        dd = derive(s)
    except REFUSALS:
        return "refused"
    walk, ref = Watched(dd), RefLevelWalk(s, dd)
    for n in range(13):
        got = _level(lambda: (walk.jump(n), walk.factors())[1])
        want = _level(lambda: (ref.step() if n else None, ref.factors())[1])
        if got != want:
            raise Mismatch(f"level {n}: the walk gives {got}, the reference walk {want}")
        if got == "refused":
            return "refused"
    g, n = None, 0
    while vertex_count_formula(s, n) <= 400:
        g = build_level(s, n, g)
        if tau(s, n, dd) != tau_bruteforce(g):
            raise Mismatch(f"level {n}: tau differs from the Kirchhoff count")
        n += 1
    if _level(lambda: walk.jump(40)) == "refused":
        return "refused"
    return "restarted" if walk.restarts else "certified" if walk.jumps else "stepping"


def _alarm(signum, frame):
    raise Hang(f"past its {BUDGET} s deadline")


def sweep(seed: int, inputs: int) -> tuple[Counter, list[str]]:
    """The outcome counts of `inputs` mutants drawn from seed, and one
    line per failed input."""
    rng, structures = random.Random(seed), bases()
    counts, failures = Counter(), []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for i in range(inputs):
            s = mutant(rng, rng.choice(structures), f"{seed}.{i}")
            signal.alarm(BUDGET)
            try:
                counts[outcome(s)] += 1
            except Exception as exc:  # noqa: BLE001 - every failure is reported with its input
                failures.append(f"{s!r}: {type(exc).__name__}: {exc}")
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return counts, failures


def test_structure_mutants():
    counts, failures = sweep(seed=49, inputs=2000)
    assert not failures, "\n".join(failures)
    assert counts["certified"] and counts["invalid"], counts


def test_a_withheld_relation_counts_as_restarted(monkeypatch):
    # every relation fails the sign proof, so each window restarts
    monkeypatch.setattr(counting, "_never_negative", lambda values, roots: False)
    assert outcome(builtin("sierpinski")) == "restarted"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Sweep structure mutants seed by seed.")
    parser.add_argument("--seeds", type=int, default=8, help="seeds 0..S-1")
    parser.add_argument("--inputs", type=int, default=2000, help="mutants per seed")
    args = parser.parse_args()
    total, failed = Counter(), []
    for seed in range(args.seeds):
        counts, failures = sweep(seed, args.inputs)
        total.update(counts)
        failed += failures
        print(f"seed {seed}: " + ", ".join(f"{k} {counts[k]}" for k in OUTCOMES), flush=True)
    print("total: " + ", ".join(f"{k} {total[k]}" for k in OUTCOMES) + f", failed {len(failed)}")
    for line in failed:
        print(line)
    sys.exit(1 if failed else 0)
