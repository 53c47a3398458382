"""Relabeling a structure's level-1 data changes nothing the engine derives.

A relabeled structure is the same fractal written down differently: the
V1 ids permuted, the boundary listed in another order (with every cell
map's columns permuted alike, so corner j still sits at boundary[j]),
and the cells and edges given in another order, with each edge's ends
swapped at random and every multi-edge split into parallel copies that
the edge normal form merges again.  phi, R, the case rule of every
exceptional value and tau(G_0..7) must come out the same.
"""

import random
from pathlib import Path

import pytest

from fractal_trees import BUILTIN_NAMES, builtin, derive, exponent_table
from fractal_trees.structures import SelfSimilarStructure, load_json, validate

ROOT = Path(__file__).resolve().parents[1]
FILES = {
    "sg3": ROOT / "perfbench" / "structures" / "sg3.json",
    "sg_2_4": ROOT / "tests" / "data" / "sg_2_4.json",
}


def _relabeled(s: SelfSimilarStructure, rng: random.Random) -> SelfSimilarStructure:
    ids = list(range(s.v1_size))
    rng.shuffle(ids)
    slots = list(range(s.v0_size))
    rng.shuffle(slots)
    cells = [[ids[cm[j]] for j in slots] for cm in s.cell_maps]
    rng.shuffle(cells)
    edges = [
        [ids[v], ids[u]] if rng.random() < 0.5 else [ids[u], ids[v]]
        for u, v, mult in s.edges1
        for _ in range(mult)
    ]
    rng.shuffle(edges)
    return SelfSimilarStructure.create(
        name=s.name, m=s.m, v0_size=s.v0_size, v1_size=s.v1_size, edges1=edges,
        boundary=[ids[s.boundary[j]] for j in slots], cell_maps=cells,
    )


def _derived(s: SelfSimilarStructure):
    dd = derive(s)
    cases = {cls: rec.case_id for cls, rec in dd.case_records.items()}
    return dd.phi, dd.R, cases, exponent_table(s, 7, dd)


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, *FILES])
def test_relabeling_changes_nothing(name):
    s = load_json(str(FILES[name])) if name in FILES else builtin(name)
    expect = _derived(s)
    rng = random.Random(f"relabel-{name}")
    for _ in range(5):
        t = _relabeled(s, rng)
        assert validate(t).ok
        assert _derived(t) == expect
