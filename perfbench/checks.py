"""Output checkers: each job's output against the references.

A verdict is "ok", "failed" or "wrong".  "failed" is a loud failure:
an unexpected exit code, an exception, a FAIL line or a malformed
output.  "wrong" is an output that parses and contradicts a reference,
or a refusal that did not happen; it also counts as failed, and any
"wrong" job makes the run's `correct` false.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction as F

import mpmath

import reference as ref

# digits10 in the program sums the logs at 60 significant digits, so once
# the digit count itself has more digits than that it is right only in its
# leading ones (ROADMAP item 5).  Such a count fails the job; a count
# that differs in these leading digits is a wrong output.
DIGITS_LEADING = 55


@dataclass
class Verdict:
    status: str = "ok"
    reasons: list = field(default_factory=list)

    def fail(self, reason: str):
        if self.status == "ok":
            self.status = "failed"
        self.reasons.append(reason)

    def wrong(self, reason: str):
        self.status = "wrong"
        self.reasons.append(reason)


def structure_name(fractal: str) -> str:
    if fractal in ref.BUILTINS:
        return fractal
    return os.path.splitext(os.path.basename(fractal))[0]


# ---------------------------------------------------------------------------
# count references


class CountReference:
    """tau(G_n) of one structure: exponents, residues and digit counts."""

    def __init__(self, fractal: str):
        self.name = structure_name(fractal)
        self.definition = ref.definition(fractal)
        self.closed = ref.CLOSED_FORMS.get(self.name)
        self._forest: dict = {}
        self._exact: list | None = None

    def factors(self, n: int) -> dict | None:
        return None if self.closed is None else self.closed(n)

    def residues(self, n: int) -> tuple:
        f = self.factors(n)
        if f is not None:
            return tuple(ref.factored_residue(f, m) for m in ref.MODULI)
        out = []
        for m in ref.MODULI:
            got = self._forest.get(m, [])
            if len(got) <= n:
                got = ref.forest_counts(self.definition, max(n, 10), m)
                self._forest[m] = got
            out.append(got[n])
        return tuple(out)

    def exact(self, n: int) -> int | None:
        """The integer itself, for small levels only."""
        f = self.factors(n)
        if f is not None:
            if sum(e * p.bit_length() for p, e in f.items()) > 20000:
                return None
            v = 1
            for p, e in f.items():
                v *= p ** e
            return v
        if n > 3:
            return None
        if self._exact is None:
            self._exact = ref.forest_counts(self.definition, 3)
        return self._exact[n]

    def digits(self, n: int) -> int | None:
        f = self.factors(n)
        if f is None:
            v = self.exact(n)
            return None if v is None else len(str(v))
        if not f:
            return 1
        dps = max(len(str(e)) for e in f.values()) + 30
        with mpmath.workdps(dps):
            acc = mpmath.fsum(e * mpmath.log10(p) for p, e in f.items())
            return int(mpmath.floor(acc)) + 1


def decimal_residue(text: str, mod: int) -> int:
    r = 0
    for i in range(0, len(text), 18):
        chunk = text[i:i + 18]
        r = (r * 10 ** len(chunk) + int(chunk)) % mod
    return r


def parse_factored(text: str) -> dict:
    if text.strip() == "1":
        return {}
    out = {}
    for term in text.split(" * "):
        p, _, e = term.partition("^")
        out[int(p)] = int(e)
    return out


def _check_factors(v: Verdict, cref: CountReference, n: int, got: dict):
    want = cref.factors(n)
    if want is not None:
        if got != want:
            bad = sorted(p for p in set(got) | set(want) if got.get(p) != want.get(p))
            v.wrong(f"exponents of {bad} differ from the closed form at n={n}")
    elif tuple(ref.factored_residue(got, m) for m in ref.MODULI) != cref.residues(n):
        v.wrong(f"count differs from the forest recursion at n={n}")


def _check_digits(v: Verdict, cref: CountReference, n: int, claimed: int):
    want = cref.digits(n)
    if want is None or claimed == want:
        return
    if abs(claimed - want) * 10 ** DIGITS_LEADING <= want:
        v.fail(f"digit count right only in its leading {DIGITS_LEADING} digits (logs at 60 digits)")
    else:
        v.wrong(f"digit count {claimed} != {want} at n={n}")


def check_count(job, code, out, err, cref: CountReference) -> Verdict:
    v = Verdict()
    n = int(job.argv[3])
    if code != 0:
        v.fail(f"exit {code}: {err.strip()[:120]}")
        return v
    if job.argv[-1] == "json":
        try:
            data = json.loads(out)
            got = {int(p): int(e) for p, e in data["factors"].items()}
            digits = data["digits"]
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            v.fail(f"malformed count JSON: {e}")
            return v
        if data.get("fractal") != cref.name or data.get("level") != n or data.get("schema") != "1":
            v.wrong("count JSON header does not match the job")
        _check_factors(v, cref, n, got)
        _check_digits(v, cref, n, digits)
        return v
    lines = out.splitlines()
    if len(lines) == 2 and lines[0].startswith("# value has "):
        try:
            claimed = int(lines[0].split()[3])
            got = parse_factored(lines[1])
        except (ValueError, IndexError) as e:
            v.fail(f"malformed factored count: {e}")
            return v
        _check_factors(v, cref, n, got)
        _check_digits(v, cref, n, claimed)
        return v
    if len(lines) != 1 or not lines[0].isdigit():
        v.fail("count text is neither an integer nor a factored form")
        return v
    if tuple(decimal_residue(lines[0], m) for m in ref.MODULI) != cref.residues(n):
        v.wrong(f"printed count differs from the reference at n={n}")
    want_digits = cref.digits(n)
    if want_digits is not None and len(lines[0]) != want_digits:
        v.wrong(f"printed count has {len(lines[0])} digits, reference {want_digits}")
    return v


# ---------------------------------------------------------------------------
# decimate


def parse_poly(text: str) -> tuple:
    text = text.strip()
    if text == "0":
        return ()
    coeffs: dict[int, F] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        if "z" in term:
            head, _, tail = term.partition("z")
            c = F(head[:-1]) if head else F(1)
            power = int(tail[1:]) if tail.startswith("^") else 1
        else:
            c, power = F(term), 0
        coeffs[power] = coeffs.get(power, F(0)) + sign * c
    return ref.poly(*[coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


def parse_rational(text: str) -> tuple:
    if text.startswith("(") and ") / (" in text:
        num, den = text[1:-1].split(") / (")
        return parse_poly(num), parse_poly(den)
    return parse_poly(text), ref.poly(1)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref.poly(*out)


def _padd(a, b):
    n = max(len(a), len(b))
    return ref.poly(*[(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _ppow(a, k):
    out = ref.poly(1)
    for _ in range(k):
        out = _pmul(out, a)
    return out


def preimage(g: tuple, num: tuple, den: tuple) -> tuple:
    """Polynomial whose roots are all z with num(z)/den(z) a root of g."""
    deg = len(g) - 1
    out = ()
    for i, c in enumerate(g):
        out = _padd(out, _pmul(ref.poly(c), _pmul(_ppow(num, i), _ppow(den, deg - i))))
    return out


def power_sums(h: tuple) -> tuple:
    """(sum of roots, sum of squared roots) from the top coefficients."""
    lead = h[-1]
    e1 = -h[-2] / lead
    e2 = h[-3] / lead if len(h) >= 3 else F(0)
    return e1, e1 * e1 - 2 * e2


def check_decimate(job, code, out, err, trace_ref) -> Verdict:
    v = Verdict()
    name = structure_name(job.fractal)
    if code != 0:
        v.fail(f"exit {code}: {err.strip()[:120]}")
        return v
    try:
        data = json.loads(out)
        num, den = parse_rational(data["R"])
        d, q0, pd = data["d"], F(data["Q0"]), F(data["Pd"])
        entries = [
            (parse_poly(e["minpoly"]), int(e["depth"]), int(e["mult"])) for e in data["spectrum"]
        ]
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as e:
        v.fail(f"malformed decimate JSON: {e}")
        return v
    if data.get("fractal") != name or data.get("spectrum_level") != 2:
        v.wrong("decimate JSON header does not match the job")
    if name in ref.PUBLISHED_TRIPLE and (d, q0, pd) != ref.PUBLISHED_TRIPLE[name]:
        v.wrong(f"(d, Q0, Pd) = {(d, q0, pd)} differs from the published triple")
    if name in ref.PUBLISHED_R:
        pnum, pden = ref.PUBLISHED_R[name]
        if _pmul(num, pden) != _pmul(pnum, den):
            v.wrong("R(z) differs from the published map")
    table = ref.published_table(name, 2)
    got = {(mp, k): mult for mp, k, mult in entries}
    if table is not None and got != table:
        v.wrong("level-2 spectrum differs from the published multiplicity table")
    size, tr2 = trace_ref
    count, s1, s2 = 1, F(0), F(0)
    for mp, k, mult in entries:
        fam = mp
        for _ in range(k):
            fam = preimage(fam, num, den)
        a, b = power_sums(fam)
        count += mult * (len(fam) - 1)
        s1 += mult * a
        s2 += mult * b
    if count != size:
        v.wrong(f"spectrum has {count} eigenvalues, G_2 has {size} vertices")
    elif (s1, s2) != (size, tr2):
        v.wrong("spectrum power sums differ from tr P_2 and tr P_2^2")
    return v


def check_refusal(job, code, out, err) -> Verdict:
    v = Verdict()
    if code == 0:
        v.wrong("pentagasket was not refused")
    elif code != 1:
        v.fail(f"refusal exit {code}, expected 1")
    elif "fully symmetric" not in err:
        v.wrong("refusal does not name the failed full symmetry")
    return v


# ---------------------------------------------------------------------------
# entropy


def entropy_values(cref: CountReference, n_max: int, prec: int) -> list:
    """c_n = ln tau(G_n) / |V_n| for 2 <= n <= n_max at prec + 10 digits."""
    with mpmath.workdps(prec + 10):
        logs = {}
        out = []
        for n in range(2, n_max + 1):
            acc = mpmath.mpf(0)
            for p, e in cref.factors(n).items():
                if p not in logs:
                    logs[p] = mpmath.log(p)
                acc += e * logs[p]
            out.append(acc / ref.vertex_count(cref.definition, n))
        return out


def check_entropy(job, code, out, err, cref: CountReference) -> Verdict:
    v = Verdict()
    n_max, prec = int(job.argv[3]), int(job.argv[5])
    if code != 0:
        v.fail(f"exit {code}: {err.strip()[:120]}")
        return v
    want = entropy_values(cref, n_max, prec)
    with mpmath.workdps(prec + 10):
        tol = mpmath.mpf(10) ** (1 - prec)

        def close(text, target):
            return abs(mpmath.mpf(text) - target) <= tol * abs(target)

        try:
            data = json.loads(out)
            got = data["values"]
            if [n for n, _ in got] != list(range(2, n_max + 1)):
                v.wrong("entropy levels are not 2..n")
                return v
            bad = [n for (n, text), target in zip(got, want) if not close(text, target)]
            if bad:
                v.wrong(f"c_n differs from the closed-form value at n={bad[:3]}")
            if data["extrapolated"] != got[-1][1]:
                v.wrong("extrapolated is not c_n at the last level")
            bounds = ref.entropy_bounds(cref.definition)
            if data["bounds_applicable"] != (bounds is not None):
                v.wrong("bounds_applicable differs from the structure")
            elif bounds and not (
                close(data["lower_bound"], bounds[0]) and close(data["upper_bound"], bounds[1])
            ):
                v.wrong("entropy bounds differ from ln(3)/2 and the published upper bound")
            tail = [abs(want[i + 1] - want[i]) for i in range(len(want) - 1)][-5:]
            decreasing = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
            if data["diffs_decreasing"] != decreasing:
                v.wrong("diffs_decreasing differs from the reference values")
            if data["precision"] != prec or data["fractal"] != cref.name:
                v.wrong("entropy JSON header does not match the job")
        except (ValueError, KeyError, TypeError, IndexError) as e:
            v.fail(f"malformed entropy JSON: {e}")
    return v


# ---------------------------------------------------------------------------
# verify


def check_verify(job, code, out, err, cref: CountReference) -> Verdict:
    v = Verdict()
    level = int(job.argv[3])
    lines = out.splitlines()
    fails = [line for line in lines if not line.startswith("PASS  ")]
    if code != 0 or fails:
        v.fail(f"exit {code}, {len(fails)} line(s) not PASS")
        return v
    expected = {"schur identity S = phi (P0 - R)"}
    expected |= {f"tau oracle vs closed form, level {n}" for n in range(level + 1)}
    expected |= {f"matrix-tree identity on G_{n}" for n in (1, 2)}
    expected |= {f"spectrum charpoly crosscheck, level {n}" for n in (1, 2)}
    expected |= {"spectrum sum rule, levels 0..30", "integer assembly at level 30"}
    names = set()
    for line in lines:
        body = line[len("PASS  "):]
        name, _, detail = body.partition("  (")
        names.add(name)
        detail = detail.rstrip(")")
        if name.startswith("tau oracle vs closed form, level "):
            n = int(name.rsplit(" ", 1)[1])
        elif name.startswith("matrix-tree identity on G_"):
            n = int(name.rsplit("_", 1)[1])
            detail = detail.removeprefix("tau=")
        else:
            continue
        if not detail.isdigit() or int(detail) != cref.exact(n):
            v.wrong(f"{name}: {detail[:40]} differs from the reference count")
    if names != expected:
        v.fail(f"verify checks {sorted(names ^ expected)} missing or unexpected")
    return v


# ---------------------------------------------------------------------------


class Checker:
    """Builds the references a workload needs on first use and checks its jobs."""

    def __init__(self):
        self._counts: dict = {}
        self._traces: dict = {}

    def count_ref(self, fractal):
        if fractal not in self._counts:
            self._counts[fractal] = CountReference(fractal)
        return self._counts[fractal]

    def check(self, job, code, out, err) -> Verdict:
        f = job.fractal
        if structure_name(f) == "pentagasket":
            return check_refusal(job, code, out, err)
        if job.kind == "decimate":
            if f not in self._traces:
                self._traces[f] = ref.trace_powers(ref.definition(f), 2)
            return check_decimate(job, code, out, err, self._traces[f])
        if job.kind == "count":
            return check_count(job, code, out, err, self.count_ref(f))
        if job.kind == "entropy":
            return check_entropy(job, code, out, err, self.count_ref(f))
        return check_verify(job, code, out, err, self.count_ref(f))
