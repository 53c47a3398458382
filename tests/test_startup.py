"""What a fresh interpreter loads to start the CLI, and that the modules
it loads on first use give the same output as an interpreter that loaded
them up front.  In-process tests never reach the lazy imports: pytest has
imported `mpmath` and `json` before any test runs."""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from fractal_trees.cli import main

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
ENV = dict(os.environ, PYTHONPATH=SRC)

# each costs 10-40 ms at start-up and none is needed before a command runs
NOT_AT_STARTUP = ("dataclasses", "inspect", "mpmath", "json")


def fresh(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=ENV, timeout=60, check=False
    )


def test_importing_the_cli_loads_no_dataclasses_inspect_mpmath_or_json():
    probe = (
        "import sys, fractal_trees.cli;"
        f" print(*[m for m in {NOT_AT_STARTUP!r} if m in sys.modules])"
    )
    done = fresh("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"\n"


def test_a_count_loads_no_mpmath():
    # text, JSON, --digits, and a text count past 10,000 digits (printed
    # factored) all take the digit count in plain integers
    commands = [
        ["count", "sierpinski", "-n", "5"], ["count", "sierpinski", "-n", "115", "--format", "json"],
        ["count", "hexagasket", "-n", "40", "--digits"], ["count", "sierpinski", "-n", "30"],
    ]
    probe = (
        "import contextlib, io, sys; from fractal_trees.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    print('mpmath' in sys.modules, 'json' in sys.modules)"
    )
    done = fresh("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [b"False False", b"False True", b"False True", b"False True"]


def test_well_formed_commands_load_no_argparse_gettext_or_locale():
    # argparse (2-3 ms to import) and the gettext and locale modules its
    # first message loads serve only help text and usage errors
    commands = [
        ["list"], ["info", "sierpinski"], ["build", "sierpinski", "-n", "1"],
        ["decimate", "sierpinski"], ["count", "sierpinski", "-n", "5"],
        ["verify", "sierpinski", "--max-level", "1"], ["entropy", "sierpinski", "-n", "6"],
    ]
    probe = (
        "import contextlib, io, sys; from fractal_trees.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(*[m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])"
    )
    done = fresh("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"\n"


@pytest.mark.parametrize("argv", [["count", "sierpinski"], ["--help"]])
def test_fresh_usage_error_and_help_print_the_in_process_bytes(monkeypatch, argv):
    # the fresh process imports argparse on the way; the help is wrapped
    # at the same width on both sides
    monkeypatch.setenv("COLUMNS", "80")
    done = subprocess.run(
        [sys.executable, "-m", "fractal_trees", *argv],
        capture_output=True, env=dict(ENV, COLUMNS="80"), timeout=60, check=False,
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exited:
            main(argv)
    assert done.returncode == exited.value.code
    assert (done.stdout, done.stderr) == (out.getvalue().encode(), err.getvalue().encode())
    assert done.stdout or done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "sierpinski", "-n", "6", "--format", "json"],
        ["entropy", "diamond", "-n", "6"],
        ["count", "sierpinski", "-n", "3", "--format", "json"],
        ["count", "hexagasket", "-n", "40", "--digits"],
        ["build", "sierpinski", "-n", "1"],
        ["info", "tests/data/sg_2_4.json", "--format", "json"],
    ],
)
def test_fresh_process_prints_the_in_process_bytes(argv):
    root = os.path.dirname(SRC)
    done = subprocess.run(
        [sys.executable, "-m", "fractal_trees", *argv],
        capture_output=True, env=ENV, cwd=root, timeout=60, check=False,
    )
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert (done.returncode, done.stderr) == (code, err.getvalue().encode())
    assert done.stdout == out.getvalue().encode()
    assert code == 0 and done.stdout
