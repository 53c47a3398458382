"""The CLI's exact bytes, pinned.

Each command below runs `cli.main` in-process from the repository root;
its stdout, its stderr and its exit code must match the sha256 digests
recorded in `tests/data/cli_golden.json`.  A refactor that claims
byte-identical output is held to it here.  To record the digests anew
(only when an output is meant to change), run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fractal_trees.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

STRUCTURES = (
    "sierpinski", "nonpcf_sg", "diamond", "hexagasket", "interval", "tree3",
    "perfbench/structures/sg3.json", "tests/data/sg_2_4.json", "tests/data/sg_2_5.json",
)
PENTAGASKET = "perfbench/structures/pentagasket.json"

COMMANDS = [
    *(
        argv
        for s in STRUCTURES
        for argv in (
            ["decimate", s],
            ["decimate", s, "-n", "3", "--format", "json"],
            ["count", s, "-n", "0", "--format", "json"],
            ["count", s, "-n", "40", "--format", "json"],
            ["count", s, "-n", "6", "--factored"],
            ["entropy", s, "-n", "60", "--format", "json"],
        )
    ),
    *(["verify", s, "--max-level", "2"] for s in STRUCTURES[:4]),
    *(["verify", s, "--max-level", "3"] for s in (*STRUCTURES[:4], STRUCTURES[6])),
    ["decimate", PENTAGASKET],
    ["count", PENTAGASKET, "-n", "0"],
    ["count", PENTAGASKET, "-n", "3"],
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list) -> dict:
    """The digests of stdout and stderr and the exit code of one command."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue()), "exit": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_is_pinned(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


def test_golden_record_covers_every_command(golden):
    assert sorted(golden) == sorted(" ".join(a) for a in COMMANDS)


if __name__ == "__main__":
    record = {" ".join(argv): run(argv) for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
