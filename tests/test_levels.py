import hashlib
import json

import pytest

from fractal_trees import BUILTIN_NAMES, builtin, build_level, degree_stats, export
from fractal_trees.levels import edge_count_formula, vertex_count_formula


def test_level_zero_is_complete_graph():
    g = build_level(builtin("sierpinski"), 0)
    assert g.vertex_count == 3
    assert g.edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))


def test_vertex_counts_match_closed_form():
    # closed form (m^n (|V1|-|V0|) + m|V0| - |V1|) / (m-1)
    for name in BUILTIN_NAMES:
        s = builtin(name)
        for n in range(4):
            closed = (
                s.m ** n * (s.v1_size - s.v0_size) + s.m * s.v0_size - s.v1_size
            ) // (s.m - 1)
            assert vertex_count_formula(s, n) == closed
            assert build_level(s, n).vertex_count == closed


def test_vertex_count_closed_form_divides_exactly():
    from test_generalization import gasket

    for s in [builtin(name) for name in BUILTIN_NAMES] + [gasket(2, 3)]:
        count = s.v1_size
        for n in range(1, 51):
            numerator = s.m ** n * (s.v1_size - s.v0_size) + s.m * s.v0_size - s.v1_size
            assert numerator % (s.m - 1) == 0, (s.name, n)
            assert vertex_count_formula(s, n) == count, (s.name, n)
            count = s.m * count - s.m * s.v0_size + s.v1_size


def test_known_vertex_counts():
    assert build_level(builtin("sierpinski"), 2).vertex_count == 15
    assert build_level(builtin("diamond"), 2).vertex_count == 12
    assert build_level(builtin("hexagasket"), 2).vertex_count == 66
    assert build_level(builtin("nonpcf_sg"), 2).vertex_count == 31
    # (4 6^n + 11)/5 for the non-p.c.f. analog
    s = builtin("nonpcf_sg")
    for n in range(4):
        assert vertex_count_formula(s, n) == (4 * 6 ** n + 11) // 5


def _histogram(degrees):
    hist = {}
    for d in degrees:
        hist[d] = hist.get(d, 0) + 1
    return hist


def _full_histogram(stats):
    """Degree histogram of every vertex of G_n, corners included."""
    hist = dict(stats.interior_histogram)
    for d in stats.corner_degrees:
        hist[d] = hist.get(d, 0) + 1
    return hist


def test_edge_counts_and_handshake():
    for name in BUILTIN_NAMES:
        s = builtin(name)
        for n in range(4):
            g = build_level(s, n)
            edge_total = sum(m for _, _, m in g.edges)
            assert edge_total == edge_count_formula(s, n)
            assert sum(g.degrees()) == 2 * edge_total


def test_degree_stats_match_built_graphs():
    for name in BUILTIN_NAMES:
        s = builtin(name)
        for n in range(4):
            g = build_level(s, n)
            stats = degree_stats(s, n)
            assert _full_histogram(stats) == _histogram(g.degrees()), (name, n)
            degs = g.degrees()
            assert tuple(degs[c] for c in g.corners) == stats.corner_degrees


def test_sierpinski_degree_profile():
    s = builtin("sierpinski")
    for n in range(1, 5):
        stats = degree_stats(s, n)
        assert stats.corner_degrees == (2, 2, 2)
        assert stats.interior_histogram == {4: (3 ** (n + 1) - 3) // 2}


def test_nonpcf_degree_profile_published_counts():
    s = builtin("nonpcf_sg")
    for n in range(4):
        stats = degree_stats(s, n)
        assert stats.corner_degrees == (2 ** (n + 1),) * 3
        expect = {}
        for k in range(1, n + 1):
            expect[3 * 2 ** (n - k + 2)] = expect.get(3 * 2 ** (n - k + 2), 0) + 6 ** (k - 1)
            expect[2 ** (n - k + 2)] = expect.get(2 ** (n - k + 2), 0) + 3 * 6 ** (k - 1)
        assert stats.interior_histogram == expect, n
    # spot check the level quoted in the construction notes
    stats2 = degree_stats(s, 2)
    assert stats2.corner_degrees == (8, 8, 8)
    assert stats2.interior_histogram == {24: 1, 12: 6, 8: 3, 4: 18}


def test_hexagasket_degree_profile():
    s = builtin("hexagasket")
    for n in range(1, 4):
        hist = _full_histogram(degree_stats(s, n))
        assert hist[4] == 6 * (6 ** n - 1) // 5
        assert hist[2] == (12 + 3 * 6 ** n) // 5


def test_diamond_degree_profile():
    s = builtin("diamond")
    for n in range(1, 5):
        hist = _full_histogram(degree_stats(s, n))
        expect = {2 ** n: 4}
        for k in range(1, n):
            expect[2 ** k] = expect.get(2 ** k, 0) + 2 * 4 ** (n - k)
        assert hist == expect


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        build_level(builtin("diamond"), -1)
    with pytest.raises(ValueError):
        degree_stats(builtin("diamond"), -1)


def test_export_json():
    g = build_level(builtin("sierpinski"), 1)
    data = json.loads(export(g, "json"))
    assert data["vertices"] == 6
    assert len(data["edges"]) == 9
    assert data["corners"] == [0, 1, 2]
    assert data["schema"] == "1"

    g0 = build_level(builtin("sierpinski"), 0)
    data0 = json.loads(export(g0, "json"))
    assert data0["vertices"] == 3 and len(data0["edges"]) == 3


def test_export_dot():
    g = build_level(builtin("diamond"), 1)
    dot = export(g, "dot")
    assert dot.count(" -- ") == 4
    assert dot.startswith("graph level1")


def test_export_deterministic():
    s = builtin("hexagasket")
    assert export(build_level(s, 2), "json") == export(build_level(s, 2), "json")


def test_export_bad_format():
    with pytest.raises(ValueError):
        export(build_level(builtin("diamond"), 1), "xml")


# sha256 of `build <fractal> -n 0..3 --format json` stdout, concatenated,
# recorded from the earlier union-find gluing
BUILD_DIGESTS = {
    "sierpinski": "a8cc3bc093bf91f7789dbedfddbe3bff66e941b1f708cbee446bc10794f7aeca",
    "nonpcf_sg": "97f75684098eaed74c9044ca266efb3b73b2833f7c0e864111c039b17d16a818",
    "diamond": "69c532a1498456e145d91c912b74bd567a212802ca8f3faf80e65477b1b98ca8",
    "hexagasket": "790a3ba5770818ab7bdf3936f28dd8691b7d10cd7380f392ae5f5ad26aef325e",
    "interval": "50f4bd8fa620b659eba8a471b85fe4c727bb2806480a8d95be2ad5fdcb4e368f",
    "tree3": "34a97556544bc5bb5c6b4bb622e2b0def99498f60be1347352a154bc4dd209de",
    "sg3": "c8e4e1319c1dce23db17ec75ecb08aec375972ca318b72a28f8e55f4c495640f",
}


@pytest.mark.parametrize("name", sorted(BUILD_DIGESTS))
def test_build_output_pinned(name, tmp_path, capsys):
    from fractal_trees.cli import main
    from fractal_trees.structures import to_json_dict
    from test_generalization import gasket

    fractal = name
    if name == "sg3":
        fractal = str(tmp_path / "sg3.json")
        with open(fractal, "w") as f:
            json.dump(to_json_dict(gasket(2, 3)), f)
    digest = hashlib.sha256()
    for n in range(4):
        assert main(["build", fractal, "-n", str(n), "--format", "json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == BUILD_DIGESTS[name]
