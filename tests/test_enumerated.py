"""Every small structure of two families, enumerated up to relabeling and
checked end to end.

Two-terminal generators have boundary 0 and 1 and internal vertices
2..k+1.  A cell is an oriented edge (a, b) with a != b, a != 1, b != 0 and
(a, b) != (0, 1), and G1 is the cells themselves.  Three-corner structures
have boundary 0, 1 and 2 and internal vertices 3..k+2.  A cell is an
ordered triple of distinct vertices whose corner i is i or internal, and
G1 is one triangle per cell.  A structure is a multiset of at least two
cells that covers every vertex, taken once per class under the
permutations of its internal vertices: its canonical form is the least
sorted cell tuple of the class.

Each structure is invalid (`validate` refuses it), refused (`derive`
raises a `DecimationError` other than `InconsistentSpectrumError`, which
the CLI prints with exit 1), or passes every check, within BUDGET seconds:
`tau` equals the Kirchhoff count at every level n <= 3 within a vertex
bound (400 for two-terminal, 300 for three-corner); `crosscheck_spectrum`
passes at levels 1-2 within 150 vertices, from one `Spectra`; the level
walk's `factors()` equal the stepping reference walk's
(`tests/test_level_tables.py`) at levels 1..12; and the walk has jumped
by level 40.  Anything else fails: an exit-2 refusal, a mismatch, an input
past its deadline or any other exception.

For larger sizes than tier-1's, run

    PYTHONPATH=src python tests/test_enumerated.py --two-terminal 6 4 --three-corner 5 3

which prints the outcome counts per family (at most 6 cells and 4
internal vertices, at most 5 cells and 3 internal vertices) and exits 1
on any failure.
"""

import argparse
import signal
import sys
from collections import Counter
from itertools import combinations_with_replacement, permutations, product

from fractal_trees import build_level, derive, tau, tau_bruteforce
from fractal_trees.counting import LevelWalk
from fractal_trees.decimation import (
    DecimationError,
    InconsistentSpectrumError,
    Spectra,
    crosscheck_spectrum,
)
from fractal_trees.levels import vertex_count_formula
from fractal_trees.structures import SelfSimilarStructure, _edges_from_cells, validate
from test_level_tables import RefLevelWalk

# seconds per structure
BUDGET = 10
CROSSCHECK_CAP = 150
OUTCOMES = ("invalid", "refused", "pass")


class Mismatch(Exception):
    """The engine and an oracle or the reference walk disagree."""


class Hang(Exception):
    """A structure ran past its deadline."""


def classes(boundary: int, k: int, cells: list, max_cells: int):
    """Each multiset of 2..max_cells of the sorted `cells` that covers the
    vertices 0..boundary+k-1, in its canonical form, once per class."""
    vertices = set(range(boundary + k))
    internal = range(boundary, boundary + k)
    relabelings = [(*range(boundary), *p) for p in permutations(internal)]
    for size in range(2, max_cells + 1):
        for chosen in combinations_with_replacement(cells, size):
            if {v for cell in chosen for v in cell} != vertices:
                continue
            # chosen is sorted, so it is canonical iff no relabeling sorts lower
            if all(chosen <= tuple(sorted(tuple(r[v] for v in cell) for cell in chosen))
                   for r in relabelings):
                yield chosen


def two_terminal(max_cells: int, max_internal: int):
    for k in range(max_internal + 1):
        size = k + 2
        cells = [(a, b) for a, b in product(range(size), repeat=2)
                 if a != b and a != 1 and b != 0 and (a, b) != (0, 1)]
        for chosen in classes(2, k, cells, max_cells):
            yield 400, SelfSimilarStructure.create(
                f"two-terminal {chosen}", len(chosen), 2, size, chosen, [0, 1], chosen)


def three_corner(max_cells: int, max_internal: int):
    for k in range(max_internal + 1):
        size = k + 3
        cells = [c for c in product(range(size), repeat=3)
                 if len(set(c)) == 3 and all(v == i or v >= 3 for i, v in enumerate(c))]
        for chosen in classes(3, k, cells, max_cells):
            yield 300, SelfSimilarStructure.create(
                f"three-corner {chosen}", len(chosen), 3, size, _edges_from_cells(chosen),
                [0, 1, 2], chosen)


def outcome(s: SelfSimilarStructure, tau_cap: int) -> str:
    """One of OUTCOMES for s; raises Mismatch on a disagreement."""
    if not validate(s).ok:
        return "invalid"
    try:
        dd = derive(s)
    except InconsistentSpectrumError:
        raise
    except DecimationError:
        return "refused"
    g = None
    for n in range(4):
        if vertex_count_formula(s, n) > tau_cap:
            break
        g = build_level(s, n, g)
        if tau(s, n, dd) != tau_bruteforce(g):
            raise Mismatch(f"level {n}: tau differs from the Kirchhoff count")
    spectra = Spectra(dd, [1, 2])
    for n in (1, 2):
        if vertex_count_formula(s, n) <= CROSSCHECK_CAP:
            ok, message = crosscheck_spectrum(dd, n, table=spectra.spectrum(n))
            if not ok:
                raise Mismatch(message)
    walk, ref = LevelWalk(dd), RefLevelWalk(s, dd)
    for n in range(1, 13):
        walk.jump(n)
        ref.step()
        if walk.factors() != ref.factors():
            raise Mismatch(f"level {n}: the walk and the reference walk differ")
    walk.jump(40)
    if not walk.jumps:
        raise Mismatch("the walk still steps at level 40")
    return "pass"


def _alarm(signum, frame):
    raise Hang(f"past its {BUDGET} s deadline")


def sweep(structures) -> tuple[Counter, list[str]]:
    """The outcome counts of the (tau cap, structure) pairs, and one line
    per failed structure."""
    counts, failures = Counter(), []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for tau_cap, s in structures:
            signal.alarm(BUDGET)
            try:
                counts[outcome(s, tau_cap)] += 1
            except Exception as exc:  # noqa: BLE001 - every failure is reported with its input
                failures.append(f"{s.name}: {type(exc).__name__}: {exc}")
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return counts, failures


def test_two_terminal_generators():
    counts, failures = sweep(two_terminal(5, 3))
    assert not failures, "\n".join(failures)
    assert counts == {"invalid": 100, "refused": 288, "pass": 74}


def test_three_corner_structures():
    counts, failures = sweep(three_corner(4, 3))
    assert not failures, "\n".join(failures)
    assert counts == {"invalid": 6336, "refused": 546, "pass": 84}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check every small structure of two families.")
    parser.add_argument("--two-terminal", type=int, nargs=2, default=(6, 4),
                        metavar=("CELLS", "INTERNAL"))
    parser.add_argument("--three-corner", type=int, nargs=2, default=(5, 3),
                        metavar=("CELLS", "INTERNAL"))
    args = parser.parse_args()
    failed = []
    for family, sizes in ((two_terminal, args.two_terminal), (three_corner, args.three_corner)):
        counts, failures = sweep(family(*sizes))
        failed += failures
        print(f"{family.__name__} {sizes[0]} {sizes[1]}: {sum(counts.values())} classes, "
              + ", ".join(f"{k} {counts[k]}" for k in OUTCOMES)
              + f", failed {len(failures)}", flush=True)
    for line in failed:
        print(line)
    sys.exit(1 if failed else 0)
