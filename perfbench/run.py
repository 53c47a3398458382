"""Benchmark of the fractal-trees command line, run in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each job is one `fractal_trees.cli.main(argv)` call with stdout and
stderr captured, issued by one client in a closed loop.  The job list is
generated from the seed (see jobs.py); every output is checked against
references that do not come from the package (see reference.py and
checks.py).  A run executes a fixed number of whole batches: --seconds
divided by the workload's nominal batch cost (jobs.NOMINAL_BATCH_S),
rounded, at least one.  The work per run therefore does not depend on
how fast the machine or the program is, and a faster program finishes
the same jobs sooner.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every job
twice, plain and traced, and reports per-layer self time and counters
per batch, the tracing overhead and the share of job time the layers
cover.  The last line of stdout is the result as one JSON object; a
record of the run (environment, jobs, verdicts, spans) is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import jobs as joblist  # noqa: E402
from calibration import KERNEL_REPEATS, kernel_seconds, mean_speed  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = tuple(joblist.WHY)
SETUP_REPEATS = 11
TAIL_BEYOND = 10
SAMPLE_EVERY_S = 0.02

# per-layer metrics: (name, unit); a layer's self time and counters are per batch
CALL_COUNTED = (
    "decimation.derive", "matrices.solve_linear", "matrices.charpoly",
    "polys.factor_classes", "decimation.classify", "decimation.spectrum",
    "counting.tau", "counting.preiterate_product", "levels.degree_stats",
    "factored.factorize", "matrices.bareiss_det_int",
)


def per_layer_names() -> list[tuple[str, str]]:
    from tracer import TARGETS, layer_name

    out = [(f"{layer_name(t)}.self_s", "s") for t in TARGETS]
    out += [(f"{name}.calls", "count") for name in CALL_COUNTED]
    out += [
        ("decimation.spectrum.levels_built", "count"),
        ("decimation.spectrum.cache_hit_ratio", "ratio"),
        ("decimation.spectrum.entries", "count"),
        ("factored.factorize.distinct_ratio", "ratio"),
        ("kirchhoff.prob_laplacian_charpoly.order", "count"),
        ("kirchhoff.tau_bruteforce.order", "count"),
        ("levels.build_level.vertices", "count"),
        ("trace.overhead", "ratio"),
        ("trace.covered_share", "ratio"),
    ]
    return out


# ---------------------------------------------------------------------------
# environment


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(threads_env) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
        "DECIMATION_TREES_THREADS": threads_env,
    }


# ---------------------------------------------------------------------------
# measurement


def structures_of(workload: str, seed: int) -> list[str]:
    batch = next(joblist.batches(workload, seed))
    return sorted({job.fractal for job in batch})


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, rescaled) seconds of fresh interpreters that import and resolve."""
    cmd = [sys.executable, os.path.join("perfbench", "setup_probe.py"), *structures_of(workload, seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if i:  # the first start compiles bytecode; it is not timed
            kernels = [float(x) for x in proc.stdout.split()]
            wall -= sum(kernels)
            times.append((wall, wall * mean_speed(kernels)))
    return times


class Speedometer:
    """Rescales wall times by the machine speed measured around and during them.

    Other tenants of a shared machine slow it by up to 1.9x, for fractions
    of a second to minutes.  The kernel is timed KERNEL_REPEATS times just
    before and just after each measured call, and every SAMPLE_EVERY_S
    during it from a SIGALRM handler, with garbage collection off in each
    sample.  The call's wall time, less the time spent in the samples,
    times the machine's mean speed over them, is its time on the
    uncontended machine.
    """

    def __init__(self):
        self._during: list[float] = []

    def _sample(self, signum, frame):
        self._during.append(kernel_seconds())

    def measure(self, fn, sample=True):
        before = [kernel_seconds() for _ in range(KERNEL_REPEATS)]
        self._during = []
        if sample:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        after = [kernel_seconds() for _ in range(KERNEL_REPEATS)]
        wall -= sum(self._during)
        return result, wall, wall * mean_speed(before + self._during + after)


def run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as e:
        code = e.code
    except Exception:  # a crash is a failed job, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def latency(times):
    """(median, tail, tail percentile).

    The tail is the highest percentile, by nearest rank, with TAIL_BEYOND
    samples above it.  With 2 * TAIL_BEYOND samples or fewer that rank is
    at or below the median, so the tail is the maximum instead.
    """
    xs = sorted(times)
    n = len(xs)
    i = n - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n
    return statistics.median(xs), xs[i - 1], 100.0 * i / n


def batch_count(workload, seconds, passes=1):
    """Batches that fill `seconds` at the nominal cost; fixed, not timed."""
    return max(1, round(seconds / (passes * joblist.NOMINAL_BATCH_S[workload])))


def run_batches(workload, seed, n_batches, do_batch) -> float:
    gen = joblist.batches(workload, seed)
    t_start = time.perf_counter()
    for b in range(n_batches):
        do_batch(b, next(gen))
    return time.perf_counter() - t_start


def plain_run(cli, checker, workload, seed, seconds):
    records = []
    speed = Speedometer()

    def do_batch(b, batch):
        for job in batch:
            gc.collect()
            (code, out, err), wall, scaled = speed.measure(lambda: run_job(cli, job))
            v = checker.check(job, code, out, err)
            records.append({"batch": b, "argv": list(job.argv), "exit": code,
                            "seconds": scaled, "wall_seconds": wall, "status": v.status,
                            "reasons": v.reasons})

    n_batches = batch_count(workload, seconds)
    return records, n_batches, run_batches(workload, seed, n_batches, do_batch)


def traced_run(cli, checker, workload, seed, seconds):
    tracer = Tracer()
    speed = Speedometer()
    records = []
    totals = {"plain": 0.0, "traced": 0.0, "traced_wall": 0.0}
    scaled_self = {name: 0.0 for name in tracer.stats}

    def do_batch(b, batch):
        for job in batch:
            index = len(records)
            rec = {"batch": b, "argv": list(job.argv), "job": index}
            modes = ("plain", "traced") if index % 2 == 0 else ("traced", "plain")
            for mode in modes:
                gc.collect()
                if mode == "traced":
                    before = {name: st.self_s for name, st in tracer.stats.items()}
                    tracer.job = index
                    tracer.install()
                try:  # no samples inside spans: they would count as layer time
                    (code, out, err), wall, scaled = speed.measure(
                        lambda: run_job(cli, job), sample=False)
                finally:
                    tracer.uninstall()
                v = checker.check(job, code, out, err)
                totals[mode] += scaled
                if mode == "traced":
                    totals["traced_wall"] += wall
                    for name, st in tracer.stats.items():
                        scaled_self[name] += (st.self_s - before[name]) * scaled / wall
                rec[mode] = {"exit": code, "seconds": scaled, "wall_seconds": wall, "status": v.status,
                             "reasons": v.reasons}
            records.append(rec)

    n_batches = batch_count(workload, seconds, passes=2)
    elapsed = run_batches(workload, seed, n_batches, do_batch)
    return tracer, scaled_self, records, totals, n_batches, elapsed


def layer_metrics(tracer, scaled_self, records, totals, n_batches) -> dict:
    st = tracer.stats
    m = {}
    for name in st:
        m[f"{name}.self_s"] = scaled_self[name] / n_batches
    for name in CALL_COUNTED:
        m[f"{name}.calls"] = st[name].calls / n_batches

    def mean(name, key):
        calls = st[name].calls
        return st[name].extra.get(key, 0) / calls if calls else 0.0

    spec = st["decimation.spectrum"]
    m["decimation.spectrum.levels_built"] = spec.extra.get("levels_built", 0) / n_batches
    needed = spec.extra.get("levels_needed", 0)
    m["decimation.spectrum.cache_hit_ratio"] = spec.extra.get("levels_reused", 0) / needed if needed else 0.0
    m["decimation.spectrum.entries"] = mean("decimation.spectrum", "entries")
    fz = st["factored.factorize"]
    m["factored.factorize.distinct_ratio"] = (
        tracer.distinct_factorize_args() / fz.calls if fz.calls else 0.0
    )
    m["kirchhoff.prob_laplacian_charpoly.order"] = mean("kirchhoff.prob_laplacian_charpoly", "order")
    m["kirchhoff.tau_bruteforce.order"] = mean("kirchhoff.tau_bruteforce", "order")
    m["levels.build_level.vertices"] = mean("levels.build_level", "vertices")
    # per-job ratios: one slow-machine moment in a long job cannot dominate
    m["trace.overhead"] = statistics.median(
        r["traced"]["seconds"] / r["plain"]["seconds"] for r in records) - 1.0
    covered = sum(s.self_s for name, s in st.items() if name != "cli.main")
    m["trace.covered_share"] = covered / totals["traced_wall"]
    return m


# ---------------------------------------------------------------------------
# reporting


def write_record(workload, seed, trace, payload) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)
    return os.path.relpath(path, ROOT)


def job_list_digest(records) -> str:
    text = json.dumps([r["argv"] for r in records])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main_one(args) -> int:
    threads_env = os.environ.pop("DECIMATION_TREES_THREADS", None)  # 1 worker
    env = environment(threads_env)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    setup_times = measure_setup(args.workload, args.seed) if args.trace == 0 else []

    import fractal_trees.cli as cli
    from checks import Checker

    checker = Checker()
    print(f"# workload {args.workload}: {joblist.WHY[args.workload]}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if args.trace == 0:
        records, n_batches, elapsed = plain_run(cli, checker, args.workload, args.seed, args.seconds)
        times = [r["seconds"] for r in records]
        walls = [r["wall_seconds"] for r in records]
        p50, tail, tail_pct = latency(times)
        wall_p50, wall_tail, _ = latency(walls)
        metrics = {
            "jobs_per_s": (len(records) / sum(times), "1/s"),
            "job_s.p50": (p50, "s"),
            "job_s.tail": (tail, "s"),
            "success_rate": (sum(r["status"] == "ok" for r in records) / len(records), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(t for _, t in setup_times), "s"),
        }
        notes = {
            "jobs_per_s": f"wall clock {len(walls) / sum(walls):.4g}",
            "job_s.p50": f"wall clock {wall_p50:.4g}",
            "job_s.tail": f"p{tail_pct:.1f} of {len(times)} samples; wall clock {wall_tail:.4g}",
            "setup_s": f"median of {len(setup_times)} fresh interpreters; wall clock "
                       f"{statistics.median(w for w, _ in setup_times):.4g}",
        }
        payload = {"env": env, "why": joblist.WHY[args.workload], "setup_s": setup_times,
                   "jobs": records}
    else:
        tracer, scaled_self, records, totals, n_batches, elapsed = traced_run(
            cli, checker, args.workload, args.seed, args.seconds)
        names = dict(per_layer_names())
        metrics = {k: (v, names[k])
                   for k, v in layer_metrics(tracer, scaled_self, records, totals, n_batches).items()}
        notes = {"trace.overhead": f"median over {len(records)} jobs; in total traced "
                                   f"{totals['traced']:.2f} s vs plain {totals['plain']:.2f} s"}
        payload = {"env": env, "why": joblist.WHY[args.workload], "jobs": records,
                   "binding_sites": sorted(tracer.sites),
                   "span_fields": ["id", "parent", "job", "layer", "t0", "t1"],
                   "spans": tracer.spans}
    verdicts = [v for r in records for v in ([r] if "status" in r else [r["plain"], r["traced"]])]
    statuses = [v["status"] for v in verdicts]
    failed = sum(s != "ok" for s in statuses)
    wrong = statuses.count("wrong")
    path = write_record(args.workload, args.seed, args.trace, payload)
    print(f"# {len(statuses)} jobs in {n_batches} batches over {elapsed:.1f} s; "
          f"job list {job_list_digest(records)}; record {path}")
    factors = [r["seconds"] / r["wall_seconds"] for r in records if "wall_seconds" in r]
    if factors:
        print(f"# machine speed factor (nominal / measured kernel time): median "
              f"{statistics.median(factors):.3f}, range {min(factors):.3f}..{max(factors):.3f}")
    reasons: dict = {}
    for v in verdicts:
        for reason in v["reasons"]:
            key = reason[:100]
            reasons[key] = reasons.get(key, 0) + 1
    for key, count in sorted(reasons.items()):
        print(f"# x{count}: {key}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(statuses),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fractal_trees", "cli.py")):
        print(f"error: no fractal_trees sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
