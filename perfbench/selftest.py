"""Self-tests of the benchmark: references, checkers, job lists, tracer.

Run from the repository root (about 5 s):

    python3 perfbench/selftest.py

Each checker must accept the program's real output and reject a mutated
copy of it; the same seed must give the same job list.
"""

import contextlib
import io
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
os.chdir(ROOT)

import checks  # noqa: E402
import jobs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, Tracer, layer_name  # noqa: E402

import fractal_trees.cli as cli  # noqa: E402


def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def job(*argv):
    return jobs.Job(argv)


class References(unittest.TestCase):
    def test_published_counts(self):
        for name, n, value in [("sierpinski", 1, 54), ("nonpcf_sg", 1, 2700),
                               ("hexagasket", 1, 2916), ("diamond", 3, 2 ** 42),
                               ("tree3", 2, 3 ** 9), ("interval", 5, 1)]:
            self.assertEqual(checks.CountReference(name).exact(n), value, name)

    def test_forest_recursion_matches_closed_forms(self):
        m = ref.MODULI[0]
        for name in ("sierpinski", "nonpcf_sg", "diamond", "hexagasket", "tree3", "interval"):
            got = ref.forest_counts(ref.definition(name), 4, m)
            want = [ref.factored_residue(ref.CLOSED_FORMS[name](n), m) for n in range(5)]
            self.assertEqual(got, want, name)

    def test_forest_recursion_matches_pinned_sg3(self):
        got = ref.forest_counts(ref.definition(ref.SG3_PATH), 2)
        self.assertEqual(got, [ref.SG3_PINNED[n] for n in range(3)])

    def test_vertex_counts(self):
        self.assertEqual(ref.vertex_count(ref.definition("hexagasket"), 3), 390)
        for name in ("sierpinski", "tree3", ref.SG3_PATH):
            d = ref.definition(name)
            self.assertEqual(ref.build_graph(d, 3)[0], ref.vertex_count(d, 3))


class Checkers(unittest.TestCase):
    def assertStatus(self, verdict, status):
        self.assertEqual(verdict.status, status, verdict.reasons)

    def setUp(self):
        self.checker = checks.Checker()

    def check(self, j, code, out, err):
        return self.checker.check(j, code, out, err)

    def test_count_json_exponent_off_by_one(self):
        j = job("count", "sierpinski", "-n", "3", "--format", "json")
        code, out, err = call(*j.argv)
        self.assertStatus(self.check(j, code, out, err), "ok")
        bad = out.replace('"3": "22"', '"3": "23"')
        self.assertNotEqual(bad, out)
        self.assertStatus(self.check(j, code, bad, err), "wrong")

    def test_count_json_digits(self):
        j = job("count", "sierpinski", "-n", "110", "--format", "json")
        self.assertStatus(self.check(j, *call(*j.argv)), "ok")
        # the program's 60-digit logs get this 67-digit count right only in
        # its leading digits: a failed job; any other digit count is wrong
        j = job("count", "diamond", "-n", "110", "--format", "json")
        code, out, err = call(*j.argv)
        self.assertStatus(self.check(j, code, out, err), "failed")
        want = checks.CountReference("diamond").digits(110)
        for bad in (0, want * 10, want + 10 ** 15):
            mutated = re.sub(r'"digits": \d+', f'"digits": {bad}', out)
            self.assertStatus(self.check(j, code, mutated, err), "wrong")

    def test_count_text_value_and_factored(self):
        j = job("count", "hexagasket", "-n", "3", "--format", "text")
        code, out, err = call(*j.argv)
        self.assertStatus(self.check(j, code, out, err), "ok")
        digit = "1" if out[5] != "1" else "2"
        self.assertStatus(self.check(j, code, out[:5] + digit + out[6:], err), "wrong")
        j = job("count", "diamond", "-n", "9", "--format", "text")
        code, out, err = call(*j.argv)
        self.assertTrue(out.startswith("# value has "))
        self.assertStatus(self.check(j, code, out, err), "ok")
        self.assertStatus(self.check(j, code, out.replace("2^", "3^"), err), "wrong")

    def test_sg3_counts_use_the_forest_recursion(self):
        j = job("count", ref.SG3_PATH, "-n", "4", "--format", "json")
        code, out, err = call(*j.argv)
        self.assertStatus(self.check(j, code, out, err), "ok")
        self.assertStatus(self.check(j, code, out.replace('"2": "', '"2": "1', 1), err), "wrong")

    def test_text_count_crash_is_a_failure(self):
        j = job("count", "sierpinski", "-n", "8", "--format", "text")
        self.assertStatus(self.check(j, *call(*j.argv)), "failed")

    def test_verify_fail_line_and_wrong_oracle(self):
        j = job("verify", "diamond", "--max-level", "2")
        code, out, err = call(*j.argv)
        self.assertStatus(self.check(j, code, out, err), "ok")
        lines = out.splitlines()
        lines[3] = "FAIL" + lines[3][4:]
        self.assertStatus(self.check(j, 2, "\n".join(lines) + "\n", err), "failed")
        self.assertStatus(self.check(j, code, out.replace("(1024)", "(1025)"), err), "wrong")

    def test_missing_refusal(self):
        j = job("count", ref.PENTA_PATH, "-n", "2", "--format", "json")
        code, out, err = call(*j.argv)
        self.assertStatus(self.check(j, code, out, err), "ok")
        self.assertStatus(self.check(j, 0, '{"factors": {}}', ""), "wrong")
        self.assertStatus(self.check(j, 1, "", "error: something else"), "wrong")

    def test_entropy_digit_changed(self):
        j = job("entropy", "nonpcf_sg", "-n", "8", "--prec", "30", "--format", "json")
        code, out, err = call(*j.argv)
        self.assertStatus(self.check(j, code, out, err), "ok")
        start = out.index('"0.') + 10
        digit = "1" if out[start] != "1" else "2"
        self.assertStatus(self.check(j, code, out[:start] + digit + out[start + 1:], err), "wrong")

    def test_decimate_multiplicity_changed(self):
        for name in ("sierpinski", "tree3"):  # published table / power sums only
            j = job("decimate", name, "-n", "2", "--format", "json")
            code, out, err = call(*j.argv)
            self.assertStatus(self.check(j, code, out, err), "ok")
            head, tail = out.split('"spectrum": [', 1)
            tail = re.sub(r'"mult": (\d+)', lambda m: f'"mult": {int(m[1]) + 1}', tail, count=1)
            self.assertStatus(self.check(j, code, head + '"spectrum": [' + tail, err), "wrong")


class JobLists(unittest.TestCase):
    def first(self, workload, seed, k=3):
        gen = jobs.batches(workload, seed)
        return [[j.argv for j in next(gen)] for _ in range(k)]

    def test_same_seed_same_jobs(self):
        for w in jobs.WHY:
            self.assertEqual(self.first(w, 11), self.first(w, 11), w)
            self.assertNotEqual(self.first(w, 11), self.first(w, 12), w)

    def test_batches_keep_their_composition(self):
        def shape(batch):  # the pentagasket's one job varies its command
            return sorted((j.kind, j.fractal, "--format" in j.argv and j.argv[-1])
                          for j in batch if j.fractal != ref.PENTA_PATH)

        for w in jobs.WHY:
            shapes = {str(shape(next(jobs.batches(w, seed)))) for seed in range(6)}
            self.assertEqual(len(shapes), 1, w)


class Latency(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        times = list(range(1, 45))
        p50, tail, pct = run.latency(times)
        self.assertEqual((p50, tail), (22.5, 34))
        self.assertAlmostEqual(pct, 100 * 34 / 44)
        self.assertEqual(run.latency(list(range(20)))[1:], (19, 100.0))
        self.assertEqual(run.latency(list(range(21)))[1:], (10, 100 * 11 / 21))


class Tracing(unittest.TestCase):
    def test_install_and_uninstall_every_binding(self):
        import fractal_trees.counting as counting
        import fractal_trees.levels as levels

        originals = (cli.tau, counting.spectrum, levels.build_level)
        t = Tracer()
        t.install()
        try:
            for site in ("cli.tau", "entropy.tau", "levels.build_level", "decimation.build_level"):
                self.assertIn(f"fractal_trees.{site}", t.sites)
            self.assertIsNot(cli.tau, originals[0])
            code, _, _ = call("count", "sierpinski", "-n", "3", "--format", "json")
        finally:
            t.uninstall()
        self.assertEqual(code, 0)
        self.assertEqual((cli.tau, counting.spectrum, levels.build_level), originals)
        self.assertEqual(set(t.stats), {layer_name(x) for x in TARGETS})
        self.assertEqual(t.stats["cli.main"].calls, 1)
        # derive builds G_1, which recurses to G_0
        self.assertEqual(t.stats["levels.build_level"].calls, 2)
        self.assertEqual(t.stats["levels.build_level"].extra["vertices"], 6 + 3)
        # self times partition the outermost span
        main = next(s for s in t.spans if s[3] == "cli.main")
        self.assertAlmostEqual(sum(s.self_s for s in t.stats.values()), main[5] - main[4], delta=1e-6)


if __name__ == "__main__":
    unittest.main(verbosity=2)
