"""Outside-in tracer: wraps the package's public functions from here.

Every target function is replaced at every binding site, meaning every
module of the package whose namespace holds that function object.  That
catches callers that imported it by name (`cli`, `counting`, `entropy`)
and recursion through the module global (`build_level`).  Each call
records a span; a layer's self time is its span minus its direct child
spans.  Spans of one job share the job's index.  Counters live with the
spans in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

TARGETS = (
    "cli.main",
    "structures.load_json",
    "structures.validate",
    "decimation.derive",
    "decimation.classify",
    "matrices.solve_linear",
    "matrices.charpoly",
    "polys.factor_classes",
    "decimation.spectrum",
    "counting.tau",
    "counting.preiterate_product",
    "levels.degree_stats",
    "factored.factorize",
    "factored.FactoredInteger.digits10",
    "entropy.entropy",
    "levels.build_level",
    "kirchhoff.tau_bruteforce",
    "kirchhoff.verify_matrix_tree",
    "kirchhoff.prob_laplacian_charpoly",
    "matrices.bareiss_det_int",
    "decimation.crosscheck_spectrum",
)

PACKAGE = "fractal_trees"

# spans shorter than this are counted but not kept individually
KEEP_SPAN_S = 1e-3


def layer_name(target: str) -> str:
    """`factored.FactoredInteger.digits10` reports as `factored.digits10`."""
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra: dict = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.stats = {layer_name(t): Stat() for t in TARGETS}
        self.spans: list = []
        self.job = -1
        self._stack: list = []
        self._next_id = 0
        self._factorize_args: set = set()
        self._patches: list = []
        self.sites: set = set()

    # -- installation --------------------------------------------------------

    def _resolve(self, target):
        mod_name, *path = target.split(".")
        owner = sys.modules[f"{PACKAGE}.{mod_name}"]
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        return owner, path[-1]

    def install(self):
        """Replace every binding of every target; `uninstall` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for target in TARGETS:
            owner, attr = self._resolve(target)
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer_name(target), original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        where = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
        self.sites.add(f"{where}.{attr}")
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        before, after = self._hooks(name, stat)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            state = before(args) if before else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if dur >= KEEP_SPAN_S:
                    spans.append((span_id, parent, self.job, name, t0, t1))
            if after:
                after(args, result, state)
            return result

        return wrapper

    def _hooks(self, name, stat):
        """Counters read at the layer boundary: (before, after) callables."""
        if name == "decimation.spectrum":
            def before(args):
                tables = getattr(args[0], "_tables", None)
                return len(tables) if isinstance(tables, list) else None

            def after(args, result, built_before):
                if built_before is not None:
                    needed = result.level + 1
                    stat.add("levels_built", len(args[0]._tables) - built_before)
                    stat.add("levels_needed", needed)
                    stat.add("levels_reused", min(built_before, needed))
                stat.add("entries", len(result.entries))
            return before, after
        if name == "factored.factorize":
            seen = self._factorize_args

            def after(args, result, _):
                seen.add(args[0])
            return None, after
        if name in ("kirchhoff.prob_laplacian_charpoly", "kirchhoff.tau_bruteforce"):
            minor = 1 if name == "kirchhoff.tau_bruteforce" else 0

            def before(args):
                stat.add("order", args[0].vertex_count - minor)
            return before, None
        if name == "levels.build_level":
            def after(args, result, _):
                stat.add("vertices", result.vertex_count)
            return None, after
        return None, None

    # -- results -------------------------------------------------------------

    def distinct_factorize_args(self) -> int:
        return len(self._factorize_args)
