import functools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_trees.cli import main
from fractal_trees.structures import builtin, from_json_dict, to_json_dict, validate


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    names = out.split()
    assert "sierpinski" in names and "hexagasket" in names


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "sierpinski")
    assert code == 0
    assert "cells:     3" in out
    assert "valid:     True" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "diamond", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cells"] == 4 and data["valid"] is True


def test_info_unknown_fractal(capsys):
    code, _, err = run(capsys, "info", "menger")
    assert code == 1
    assert "unknown fractal" in err


def test_build_json(capsys):
    code, out, _ = run(capsys, "build", "sierpinski", "-n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 6 and len(data["edges"]) == 9


def test_build_dot(capsys):
    code, out, _ = run(capsys, "build", "diamond", "-n", "1", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 4
    assert "v0" in out and "v3" in out


def test_decimate_text(capsys):
    code, out, _ = run(capsys, "decimate", "diamond")
    assert code == 0
    # R(z) = 2z(2-z) expanded
    assert "R(z)   = -2*z^2 + 4*z" in out
    assert "case 6" in out


def test_decimate_json(capsys):
    code, out, _ = run(capsys, "decimate", "hexagasket", "--format", "json", "-n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 4
    assert len(data["sigma_D"]) == 3
    cases = {e["value"]: e["case"] for e in data["exceptional"]}
    assert cases["3/2"] == 5
    assert any(e["depth"] == 1 for e in data["spectrum"])


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "interval", "-n", "7")
    assert code == 0
    assert out.strip() == "1"


def test_count_factored(capsys):
    code, out, _ = run(capsys, "count", "sierpinski", "-n", "1", "--factored")
    assert code == 0
    assert out.strip() == "2^1 * 3^3"


def test_count_digits(capsys):
    code, out, _ = run(capsys, "count", "sierpinski", "-n", "10", "--digits")
    assert code == 0
    assert int(out.strip()) > 10


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "nonpcf_sg", "-n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["factors"] == {"2": "2", "3": "3", "5": "2"}
    assert data["schema"] == "1"


def test_count_large_level_prints_factored(capsys):
    code, out, _ = run(capsys, "count", "sierpinski", "-n", "30")
    assert code == 0
    assert "factored form" in out


def test_count_plain_past_the_int_string_limit(capsys):
    # 4,482 digits: above the 4,300-digit str(int) limit of recent Pythons
    from fractal_trees import tau

    code, out, err = run(capsys, "count", "sierpinski", "-n", "8")
    assert code == 0, err
    printed = out.strip()
    t = tau(builtin("sierpinski"), 8)
    assert printed.isdigit() and len(printed) == t.digits10() > 4300
    prime = 2 ** 127 - 1
    residue = 1
    for p, e in t.factors.items():
        residue = residue * pow(p, e, prime) % prime
    printed_residue = 0
    for digit in printed:  # int(printed) itself would hit the limit
        printed_residue = (printed_residue * 10 + int(digit)) % prime
    assert printed_residue == residue


@pytest.fixture
def int_str_limit(request):
    """CPython's int-to-str digit limit for one test, restored after: the
    default 4300, or the test's indirect parameter."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    limit = getattr(request, "param", 4300)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield limit
    finally:
        sys.set_int_max_str_digits(old)


def _current_int_str_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize("mode", [[], ["--factored"], ["--digits"], ["--format", "json"]])
def test_count_prints_exponents_past_the_int_string_limit(
    monkeypatch, capsys, int_str_limit, mode
):
    # 2^E 5^E with E = 10^4400: every exponent and the digit count E + 1
    # have more than 4,300 digits; `count sierpinski -n 9100` is a real case
    from fractal_trees import FactoredInteger, cli

    big = "1" + "0" * 4400
    fake = FactoredInteger({2: 10 ** 4400, 5: 10 ** 4400})
    monkeypatch.setattr(cli, "tau", lambda s, n: fake)
    code, out, err = run(capsys, "count", "sierpinski", "-n", "9100", *mode)
    assert code == 0, err
    assert _current_int_str_limit() == int_str_limit
    digits = "1" + "0" * 4399 + "1"
    factored = f"2^{big} * 5^{big}"
    expected = {
        (): f"# value has {digits} digits; factored form:\n{factored}\n",
        ("--factored",): factored + "\n",
        ("--digits",): digits + "\n",
    }
    if mode == ["--format", "json"]:
        assert f'"digits": {digits},' in out
        assert f'"2": "{big}",' in out and f'"5": "{big}"' in out
    else:
        assert out == expected[tuple(mode)]


# at level 1400 the 3/2 family born at level 0 has multiplicity
# (3^1400 + 3)/2, 668 digits: past 640, the lowest limit CPython allows;
# written out here, before any test lowers the limit
SIERPINSKI_3_2_ENTRY = f"  (3/2, 0, {(3 ** 1400 + 3) // 2})\n"


@pytest.mark.parametrize("int_str_limit", [640], indirect=True)
def test_decimate_text_past_the_int_string_limit(capsys, int_str_limit):
    code, out, err = run(capsys, "decimate", "sierpinski", "-n", "1400")
    assert code == 0, err
    assert _current_int_str_limit() == int_str_limit
    assert SIERPINSKI_3_2_ENTRY in out


def test_fractal_file_with_a_huge_integer_refused(tmp_path, capsys, int_str_limit):
    # parsing stays under the int-to-str limit: a 5,000-digit field is refused
    text = json.dumps(to_json_dict(builtin("diamond")))
    text = text.replace('"cells": 4,', '"cells": 4' + "0" * 5000 + ",", 1)
    assert "0" * 5000 in text
    path = tmp_path / "huge.json"
    path.write_text(text)
    code, out, err = run(capsys, "count", str(path), "-n", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _current_int_str_limit() == int_str_limit


def test_python_dash_m_entry_point():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-m", "fractal_trees", "count", "sierpinski", "-n", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "54"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "sierpinski", "--max-level", "2")
    assert code == 0
    assert "FAIL" not in out
    assert "tau oracle vs closed form, level 2" in out
    assert "schur identity" in out
    assert "sum rule" in out


def test_verify_diamond_level_three(capsys):
    code, out, _ = run(capsys, "verify", "diamond", "--max-level", "3")
    assert code == 0
    assert "level 3" in out


def test_verify_stops_at_the_first_level_past_the_oracle_cap(monkeypatch, capsys):
    # |V_n| grows with n, so levels past the first one above 400 vertices
    # are neither evaluated nor listed one by one
    import time

    from fractal_trees import cli

    real = cli.vertex_count_formula
    asked = []
    monkeypatch.setattr(
        cli, "vertex_count_formula", lambda s, n: asked.append(n) or real(s, n)
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "sierpinski", "--max-level", "100000")
    assert time.perf_counter() - start < 2
    assert code == 0 and "FAIL" not in out
    assert asked == list(range(7))  # |V_6| = 1095 is the first above 400
    assert err == (
        "note: skipping brute force at levels 6..100000 "
        "(graphs above 400 vertices)\n"
    )
    assert run(capsys, "verify", "sierpinski", "--max-level", "5") == (0, out, "")


def test_verify_prints_a_count_past_the_int_string_limit(monkeypatch, capsys, int_str_limit):
    # with the oracle's cap raised, tau(G_8) of the gasket (9,843 vertices,
    # 4,481 digits) is a PASS detail; it exited 1 on CPython's int-to-str limit
    from fractal_trees import cli, tau

    monkeypatch.setattr(cli, "BRUTE_FORCE_SOFT_CAP", 12_000)
    code, out, err = run(capsys, "verify", "sierpinski", "--max-level", "8")
    assert (code, err) == (0, "")
    assert _current_int_str_limit() == int_str_limit
    with cli._int_str_unlimited():
        count = str(tau(builtin("sierpinski"), 8).value())
    assert len(count) == 4481
    assert f"PASS  tau oracle vs closed form, level 8  ({count})\n" in out
    assert "FAIL" not in out


def test_verify_prints_an_assembly_failure_as_a_fail_line(monkeypatch, capsys):
    # with the one-step ratio negated, as by Q(0) -> -Q(0), the hexagasket's
    # level-2 product is negative (see test_counting); verify records that
    # and still runs every other check
    from fractal_trees.decimation import DecimationData

    passing = run(capsys, "verify", "hexagasket")[1].splitlines()
    real = DecimationData.ratio
    monkeypatch.setattr(DecimationData, "ratio", property(lambda dd: -real.fget(dd)))
    code, out, err = run(capsys, "verify", "hexagasket")
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert [line.split("  ")[1] for line in lines] == [line.split("  ")[1] for line in passing]
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == [
        "FAIL  tau oracle vs closed form, level 2  (assembly mismatch at level 2: the product "
        "is not a positive integer (sign -1, negative exponents at primes []))",
        "FAIL  integer assembly at level 30  (assembly mismatch at level 30: the product "
        "is not a positive integer (sign -1, negative exponents at primes []))",
    ]


def test_verify_takes_tau_from_one_level_walk(monkeypatch, capsys):
    # the oracle levels 0..3 and level 30 are read from one walk, in order;
    # tau is not asked
    from fractal_trees import cli

    walks, levels = [], []
    real_walk, real_tau = cli.LevelWalk, cli.tau
    monkeypatch.setattr(cli, "LevelWalk", lambda *args: walks.append(args) or real_walk(*args))
    monkeypatch.setattr(cli, "tau", lambda s, n, *args: levels.append(n) or real_tau(s, n, *args))
    code, out, _ = run(capsys, "verify", "sierpinski", "--max-level", "3")
    assert code == 0 and out.count("PASS") == 11
    assert (len(walks), levels) == (1, [])


def test_verify_checks_the_walks_level_zero_assembly(monkeypatch, capsys):
    # an extra factor 2 in the walk's level-0 pieces shows at level 0, which
    # Kirchhoff checks against the walk, not against Cayley's formula
    from fractal_trees import cli

    class Off(cli.LevelWalk):
        def __init__(self, *args):
            super().__init__(*args)
            self.fixed[2] = self.fixed.get(2, 0) + 1

    monkeypatch.setattr(cli, "LevelWalk", Off)
    code, out, _ = run(capsys, "verify", "sierpinski", "--max-level", "1")
    assert code == 2
    assert "FAIL  tau oracle vs closed form, level 0  (3)" in out.splitlines()


def test_entropy_text(capsys):
    code, out, _ = run(capsys, "entropy", "diamond", "-n", "16", "--prec", "15")
    assert code == 0
    assert "0.693147" in out
    assert "not applicable" in out


def test_entropy_json(capsys):
    code, out, _ = run(
        capsys, "entropy", "sierpinski", "-n", "8", "--prec", "12", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["bounds_applicable"] is True
    assert data["values"][0][0] == 2


def test_entropy_text_prints_the_bounds(capsys):
    code, out, _ = run(capsys, "entropy", "sierpinski", "-n", "5", "--prec", "10")
    assert code == 0
    # ln(3)/2 <= c <= ln((m-1)|V0|(|V0|-1)/(|V1|-|V0|)) = ln 4
    assert "bounds: 0.5493061443 <= c <= 1.386294361\n" in out


def test_entropy_precision_below_six_refused(capsys):
    code, out, err = run(capsys, "entropy", "sierpinski", "-n", "5", "--prec", "5")
    assert code == 1 and out == ""
    assert err == "error: precision must be at least 6\n"


def test_custom_fractal_file(tmp_path, capsys):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(to_json_dict(builtin("diamond"))))
    code, out, _ = run(capsys, "count", str(path), "-n", "2")
    assert code == 0
    assert out.strip() == "1024"


def test_invalid_fractal_file(tmp_path, capsys):
    data = to_json_dict(builtin("diamond"))
    data["edges"].append([0, 1])  # boundary-boundary edge
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "info", str(path))
    assert code == 1


def test_info_lists_the_violations_of_a_fractal_file(tmp_path, capsys):
    data = to_json_dict(builtin("diamond"))
    data["edges"].append([0, 1])  # boundary-boundary edge
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "info", str(path))
    assert code == 1 and err == ""
    assert "valid:     False" in out
    assert "  violation: boundary-boundary edge\n" in out
    code, out, _ = run(capsys, "info", str(path), "--format", "json")
    assert code == 1
    assert "boundary-boundary edge" in json.loads(out)["violations"]
    # the commands that compute still refuse the file with one error line
    code, out, err = run(capsys, "count", str(path), "-n", "1")
    assert code == 1 and out == "" and err.count("\n") == 1


# one rule of `structures.validate` broken in the diamond's JSON form: the
# changed fields, and every violation reported, the broken rule's first
VIOLATIONS = {
    "cells": ({"cells": 1}, (
        "cell count m must be at least 2",
        "cell_maps must be m lists of v0_size vertex ids",
    )),
    "boundary_size": ({"boundary_size": 1, "boundary": [0], "cell_maps": [[0], [2], [1], [3]]}, (
        "boundary size must be at least 2",
        "edges inconsistent with cell maps (G1 != glued complete graph copies)",
    )),
    "v1_size": ({"v1_size": 1}, (
        "v1_size smaller than boundary size",
        "boundary vertex id out of range",
        "cell_maps vertex id out of range",
        *["edge vertex id out of range"] * 4,
    )),
    "repeated_boundary": ({"boundary": [0, 0]}, ("boundary must list v0_size distinct vertices",)),
    "boundary_id": ({"boundary": [0, 9]}, ("boundary vertex id out of range",)),
    "cell_map_id": ({"cell_maps": [[0, 9], [2, 1], [0, 3], [3, 1]]}, ("cell_maps vertex id out of range",)),
    "edge_id": ({"edges": [[0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 1], [0, 9, 1]]}, (
        "edge vertex id out of range",
    )),
    "disconnected": ({"edges": [[0, 2, 1], [1, 2, 1]]}, (
        "G1 not connected",
        "edges inconsistent with cell maps (G1 != glued complete graph copies)",
    )),
    # within m |V0| vertices, so the coverage check runs after the per-vertex ones
    "uncovered": ({"v1_size": 5}, (
        "G1 not connected",
        "uncovered V1 vertex (not any cell corner image)",
    )),
}


@pytest.mark.parametrize("changes, violations", VIOLATIONS.values(), ids=VIOLATIONS)
def test_each_structure_rule_is_reported_and_refused(tmp_path, capsys, changes, violations):
    data = {**to_json_dict(builtin("diamond")), **changes}
    assert validate(from_json_dict(data)).violations == violations
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "info", str(path))
    assert code == 1 and err == ""
    shown = [line for line in out.splitlines() if line.startswith("  violation: ")]
    assert shown == [f"  violation: {v}" for v in violations]
    assert run(capsys, "count", str(path), "-n", "1") == (1, "", f"error: {'; '.join(violations)}\n")


@pytest.mark.parametrize(
    "mutate, expect",
    [
        (lambda d: [d], None),
        (lambda d: {**d, "edges": [["0", 2, 1]] + d["edges"][1:]}, "field 'edges'"),
        (lambda d: {**d, "cell_maps": None}, "field 'cell_maps'"),
        (lambda d: {**d, "boundary": [0, 2.5]}, "field 'boundary'"),
        (lambda d: b"[" * 200_000 + b"]" * 200_000, "cannot parse {path}: "),
        (lambda d: json.dumps(d).encode().replace(b"diamond", b"diam\xffond"), "cannot parse {path}: "),
    ],
    ids=[
        "top-level-list", "string-vertex-id", "null-cell-maps", "float-vertex-id",
        "nested-200000-deep", "not-utf-8",
    ],
)
def test_malformed_fractal_file_one_error_line(tmp_path, capsys, mutate, expect):
    path = tmp_path / "bad.json"
    content = mutate(to_json_dict(builtin("diamond")))
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    for argv in (["count", str(path), "-n", "2"], ["info", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if expect:
            assert expect.format(path=path) in err


@pytest.mark.parametrize(
    "edge, expect",
    [
        ([0, 2, 1, 5], "edge must be [u, v] or [u, v, mult]: [0, 2, 1, 5]"),
        ([0], "edge must be [u, v] or [u, v, mult]: [0]"),
        ([0, 2, 0], "edge multiplicity must be positive: [0, 2, 0]"),
        ([0, 2, -1], "edge multiplicity must be positive: [0, 2, -1]"),
    ],
)
def test_fractal_file_with_a_malformed_edge_refused(tmp_path, capsys, edge, expect):
    path = tmp_path / "bad.json"
    d = to_json_dict(builtin("diamond"))
    path.write_text(json.dumps({**d, "edges": [edge] + d["edges"][1:]}))
    assert run(capsys, "count", str(path), "-n", "2") == (1, "", f"error: {expect}\n")


def test_fractal_path_that_is_a_directory_refused(tmp_path, capsys):
    assert run(capsys, "count", str(tmp_path), "-n", "2") == (
        1, "", f"error: cannot read {tmp_path}: Is a directory\n")


def test_negative_level_rejected(capsys):
    code, _, err = run(capsys, "count", "diamond", "-n", "-2")
    assert code == 1


def test_negative_max_level_rejected(capsys):
    # a negative cap used to run no oracle and still print PASS lines
    code, out, err = run(capsys, "verify", "sierpinski", "--max-level", "-1")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_count_refused_by_the_induction_exits_2(monkeypatch, capsys):
    # an injected orbit 1/2 -> 3/2 -> 3/4 meets sierpinski's lifted 3/4
    # family at depth 2, so the induction refuses at level 3
    from test_induction import _inject_orbit, rat

    _inject_orbit(monkeypatch, [rat("1/2"), rat("3/2"), rat("3/4")], "escaped")
    code, out, err = run(capsys, "count", "sierpinski", "-n", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "deep family splitting" in err


def _repeated_zero_root(monkeypatch):
    """Make 7/3 a double root of R, as the zero eigenvalue's preimages."""
    from fractal_trees.decimation import ZERO_CLASS, DecimationData
    from test_induction import rat

    real = DecimationData.preimage_classes

    def preimage_classes(dd, base):
        out = real(dd, base)
        return out + [(rat("7/3"), 2)] if base == ZERO_CLASS else out

    monkeypatch.setattr(DecimationData, "preimage_classes", preimage_classes)


def test_count_refuses_a_repeated_root_of_r(monkeypatch, capsys):
    _repeated_zero_root(monkeypatch)
    code, out, err = run(capsys, "count", "sierpinski", "-n", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "repeated regular preimage" in err


def test_verify_prints_a_repeated_root_of_r_as_fail_lines(monkeypatch, capsys):
    _repeated_zero_root(monkeypatch)
    code, out, err = run(capsys, "verify", "sierpinski", "--max-level", "2")
    assert code == 2
    assert err == ""
    lines = out.splitlines()
    assert lines[:2] == [
        "PASS  schur identity S = phi (P0 - R)  (verified during derivation)",
        "PASS  tau oracle vs closed form, level 0  (3)",
    ]
    failed = [line for line in lines if line.startswith("FAIL")]
    # every check that runs the induction fails: two oracle levels, two
    # crosschecks, the sum rule and the assembly
    assert len(failed) == 6
    assert all("repeated regular preimage" in line for line in failed)


def test_output_deterministic(capsys):
    code1, out1, _ = run(capsys, "decimate", "hexagasket", "--format", "json")
    code2, out2, _ = run(capsys, "decimate", "hexagasket", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("name", ["sierpinski", "interval"])
def test_build_refuses_a_level_above_the_cap_without_forming_it(capsys, name):
    # interval grows slowest (|V_n| = 2^n + 1), so its first level above
    # the cap is the 21st; n = 10^8 used to form m^n and never finish
    import time

    from fractal_trees.levels import BUILD_VERTEX_CAP

    s, first = builtin(name), 0
    v = s.v0_size
    while v <= BUILD_VERTEX_CAP:
        v, first = s.m * (v - s.v0_size) + s.v1_size, first + 1
    for n in (first, 10 ** 8):
        start = time.perf_counter()
        code, out, err = run(capsys, "build", name, "-n", str(n))
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"more than {BUILD_VERTEX_CAP} vertices" in err


@pytest.mark.parametrize("name", ["sierpinski", "hexagasket"])
def test_count_refuses_a_level_above_the_cap_before_stepping(capsys, name):
    # the exponents of tau(G_n) grow like m^n; 10^23 used to step until killed
    import math
    import time

    from fractal_trees.counting import COUNT_DIGIT_CAP

    s = builtin(name)
    first = math.ceil(COUNT_DIGIT_CAP / math.log10(s.m))
    # m^n has more than COUNT_DIGIT_CAP digits from the first refused level on
    assert s.m ** (first - 1) < 10 ** COUNT_DIGIT_CAP <= s.m ** first
    for n in (first, 10 ** 23):
        start = time.perf_counter()
        code, out, err = run(capsys, "count", name, "-n", str(n), "--factored")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"more than {COUNT_DIGIT_CAP} digits" in err


def _refusals():
    from fractal_trees.decimation import SPECTRUM_LEVEL_CAP
    from fractal_trees.entropy import ENTROPY_LEVEL_CAP, ENTROPY_PRECISION_CAP

    level = "levels above {} are refused"
    digits = "precisions above {} digits are refused"
    return [
        pytest.param(("decimate", "sierpinski"), SPECTRUM_LEVEL_CAP + 1,
                     level.format(SPECTRUM_LEVEL_CAP), id="decimate-first-refused-level"),
        pytest.param(("decimate", "hexagasket", "--format", "json"), 10 ** 23,
                     level.format(SPECTRUM_LEVEL_CAP), id="decimate-level-1e23"),
        pytest.param(("entropy", "sierpinski"), ENTROPY_LEVEL_CAP + 1,
                     level.format(ENTROPY_LEVEL_CAP), id="entropy-first-refused-level"),
        pytest.param(("entropy", "nonpcf_sg", "--format", "json"), 10 ** 23,
                     level.format(ENTROPY_LEVEL_CAP), id="entropy-level-1e23"),
        pytest.param(("entropy", "sierpinski", "--prec", str(ENTROPY_PRECISION_CAP + 1)), 10,
                     digits.format(ENTROPY_PRECISION_CAP), id="entropy-first-refused-precision"),
        pytest.param(("entropy", "diamond", "--prec", str(10 ** 23)), 10,
                     digits.format(ENTROPY_PRECISION_CAP), id="entropy-precision-1e23"),
    ]


@pytest.mark.parametrize("argv, n, message", _refusals())
def test_decimate_and_entropy_refuse_unreachable_inputs_before_stepping(capsys, argv, n, message):
    # n = 10^8 or a precision of 10^6 digits used to run until killed
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "-n", str(n))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is out of reach" in err and message in err


def test_decimate_and_entropy_allow_their_caps(capsys):
    from fractal_trees.decimation import SPECTRUM_LEVEL_CAP
    from fractal_trees.entropy import ENTROPY_LEVEL_CAP, ENTROPY_PRECISION_CAP

    # the interval is the cheapest structure to run to each cap
    for argv in (
        ("decimate", "interval", "-n", str(SPECTRUM_LEVEL_CAP), "--format", "json"),
        ("entropy", "interval", "-n", str(ENTROPY_LEVEL_CAP), "--format", "json"),
        ("entropy", "interval", "-n", "2", "--prec", str(ENTROPY_PRECISION_CAP)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_the_parser_is_built_once():
    from fractal_trees.cli import make_parser

    assert make_parser() is make_parser()


def _with_zero_class(monkeypatch, where):
    """Make every level of the induction from 1 on carry the zero class:
    lifted, or born in place of one root of a rational born class (so the
    sum rule holds)."""
    from fractal_trees.decimation import ZERO_CLASS, Induction

    real = Induction.__next__

    def __next__(self):
        v_n, born, lifted = real(self)
        if self.level and where == "lifted":
            lifted[ZERO_CLASS] = 1
        elif self.level:
            cls = next(c for c in born if c.degree == 1)
            born[cls] -= 1
            born[ZERO_CLASS] = 1
        return v_n, born, lifted

    monkeypatch.setattr(Induction, "__next__", __next__)


@pytest.mark.parametrize("where, message", [
    ("lifted", "the zero eigenvalue is never lifted to preiterates"),
    ("born", "class norm of a class containing 0 vanishes"),
])
def test_level_walk_zero_class_exits_2(monkeypatch, capsys, where, message):
    # a zero class reaching the walk is a failed exactness check, not bad input
    _with_zero_class(monkeypatch, where)
    code, out, err = run(capsys, "count", "sierpinski", "-n", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


USAGE_ERRORS = [
    (["list", "extra"], "unrecognized arguments: extra"),
    (["count", "sierpinski"], "the following arguments are required: -n/--level"),
    (["count", "sierpinski", "-n", "x"], "argument -n/--level: invalid int value: 'x'"),
    (["frob"], "argument command: invalid choice: 'frob'"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_errors_exit_1_with_argparse_text(capsys, monkeypatch, argv, message):
    # a usage error is bad input (exit 1); argparse's own status, 2, is the
    # status of a failed exactness check.  The stderr text is argparse's
    import argparse

    from fractal_trees import cli

    with pytest.raises(SystemExit) as ours:
        main(argv)
    err = capsys.readouterr().err
    assert ours.value.code == 1
    assert err.startswith("usage: fractal-trees") and f"error: {message}" in err
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    with pytest.raises(SystemExit) as stock:
        main(argv)
    assert stock.value.code == 2 and capsys.readouterr().err == err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["count", "--help"]):
        with pytest.raises(SystemExit) as done:
            main(argv)
        out, err = capsys.readouterr()
        assert done.value.code == 0 and out.startswith("usage: fractal-trees") and err == ""


@functools.cache
def reference_parser():
    """The hand-written grammar that `cli.GRAMMAR` replaced, kept as the
    reference for the table-built parser's help, usage and error bytes
    and for the namespaces both parsers make."""
    import argparse

    from fractal_trees import cli

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    p = Parser(
        prog="fractal-trees",
        description="Exact spanning-tree counts on self-similar fractal graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list builtin fractals").set_defaults(func=cli.cmd_list)

    sp = sub.add_parser("info", help="structure summary and validation")
    sp.add_argument("fractal")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cli.cmd_info)

    sp = sub.add_parser("build", help="build and export a level graph")
    sp.add_argument("fractal")
    sp.add_argument("-n", "--level", type=int, default=1)
    sp.add_argument("--format", choices=("dot", "json"), default="json")
    sp.set_defaults(func=cli.cmd_build)

    sp = sub.add_parser("decimate", help="derive phi, R and the exceptional cases")
    sp.add_argument("fractal")
    sp.add_argument("-n", "--level", type=int, default=1, help="spectrum preview level")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cli.cmd_decimate)

    sp = sub.add_parser("count", help="number of spanning trees of G_n")
    sp.add_argument("fractal")
    sp.add_argument("-n", "--level", type=int, required=True)
    sp.add_argument("--factored", action="store_true", help="print prime factorization")
    sp.add_argument("--digits", action="store_true", help="print decimal digit count")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cli.cmd_count)

    sp = sub.add_parser("verify", help="run the exactness checks")
    sp.add_argument("fractal")
    sp.add_argument("--max-level", type=int, default=2)
    sp.set_defaults(func=cli.cmd_verify)

    sp = sub.add_parser("entropy", help="asymptotic complexity constant")
    sp.add_argument("fractal")
    sp.add_argument("-n", "--level", type=int, default=30)
    sp.add_argument("--prec", type=int, default=30)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cli.cmd_entropy)

    return p


COMMAND_NAMES = ("list", "info", "build", "decimate", "count", "verify", "entropy")


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize(
    "argv",
    [["--help"], *([c, "--help"] for c in COMMAND_NAMES), *(a for a, _ in USAGE_ERRORS)],
    ids=" ".join,
)
def test_the_table_built_parser_prints_the_reference_bytes(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    outcomes = []
    for parse in (main, reference_parser().parse_args):
        with pytest.raises(SystemExit) as done:
            parse(list(argv))
        outcomes.append((done.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


OPTION_STRINGS = ("-n", "--level", "--format", "--factored", "--digits", "--max-level", "--prec")
ODD_TOKENS = (
    "--form", "--max", "--lev", "--format=json", "-n5", "-h", "--help", "--", "-",
    "sierpinski", "diamond", "extra",
)
# int() reads each of these; argparse takes "-1_0" for an option string
INTS = ("0", "-1", "+3", " 7", "1_000", "\u0663", "-\u0663", "-1_0")
VALUES = (*INTS, "1.5", "-1.5", "x", "", "json", "JSON", "dot", "text")


OWN_OPTIONS = {
    "info": ("--format",),
    "build": ("-n", "--level", "--format"),
    "decimate": ("-n", "--level", "--format"),
    "count": ("-n", "--level", "--factored", "--digits", "--format"),
    "verify": ("--max-level",),
    "entropy": ("-n", "--level", "--prec", "--format"),
}


@st.composite
def command_lines(draw):
    """A command, then a positional token among words.  Three words in
    four are an option string with its value (three in four times one of
    the command's own options, and a value of the option's kind); the
    rest are any single token."""

    def mostly(likely, anything):
        return draw(st.sampled_from(likely if likely and draw(st.integers(0, 3)) else anything))

    command = draw(st.sampled_from([*COMMAND_NAMES, "frob"]))
    words = []
    for _ in range(draw(st.integers(0, 4))):
        if not draw(st.integers(0, 3)):
            words.append((draw(st.sampled_from(OPTION_STRINGS + ODD_TOKENS + VALUES)),))
            continue
        option = mostly(OWN_OPTIONS.get(command, ()), OPTION_STRINGS)
        if option in ("--factored", "--digits"):
            words.append((option,))
        else:
            kind = ("text", "json", "dot") if option == "--format" else INTS
            words.append((option, mostly(kind, VALUES)))
    words.insert(draw(st.integers(0, len(words))), (draw(st.sampled_from(ODD_TOKENS + VALUES)),))
    return [command, *(token for word in words for token in word)]


@settings(max_examples=600, deadline=None)
@given(command_lines())
def test_a_direct_read_is_the_namespace_argparse_makes(argv):
    # a namespace read from the table must be one argparse accepts and
    # makes, from the table and from the hand-written grammar; None hands
    # argv to argparse as it is
    from fractal_trees.cli import _read, make_parser

    args = _read(argv)
    if args is not None:
        expected = vars(reference_parser().parse_args(argv))
        assert vars(args) == vars(make_parser().parse_args(argv)) == expected, argv


def test_the_grammar_uses_only_what_the_direct_read_knows():
    # `_read` reads these keywords as argparse does; another keyword, a
    # type other than int or an action other than store_true would have
    # to be taught to it first
    from fractal_trees.cli import GRAMMAR

    for _, _, arguments in GRAMMAR.values():
        for flags, kwargs in arguments:
            assert set(kwargs) <= {"type", "choices", "default", "required", "help", "action"}
            assert kwargs.get("type", int) is int, flags
            assert kwargs.get("action", "store_true") == "store_true", flags


def test_golden_and_benchmark_command_lines_are_read_directly(monkeypatch):
    import random
    from pathlib import Path

    from test_cli_golden import COMMANDS

    from fractal_trees.cli import _read, make_parser

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import jobs

    bench = [
        job.argv
        for workload in jobs.MAKERS
        for seed in range(3)
        for job in jobs.MAKERS[workload](random.Random(seed))
    ]
    assert len(COMMANDS) > 50 and len(bench) > 50
    for argv in [*COMMANDS, *bench]:
        args = _read(list(argv))
        assert args is not None, argv
        expected = vars(reference_parser().parse_args(list(argv)))
        assert vars(args) == vars(make_parser().parse_args(list(argv))) == expected, argv


def test_usage_error_exit_status_from_the_shell():
    import os
    import subprocess

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-m", "fractal_trees", "count", "sierpinski"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.endswith("error: the following arguments are required: -n/--level\n")


@pytest.mark.parametrize("argv", [["entropy", "sierpinski", "-n", "400", "--prec", "300"],
                                  ["build", "sierpinski", "-n", "8"]])
def test_output_closed_by_its_reader_exits_1_without_a_traceback(argv):
    # both outputs outgrow the pipe's buffer, so the writes after the
    # first line meet a closed pipe
    import os
    import subprocess

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    with subprocess.Popen([sys.executable, "-m", "fractal_trees", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(timeout=60), err) == (1, b"")
