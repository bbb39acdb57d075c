"""Outside-in tracing of gbsolve: spans and counters installed by patching.

Nothing under ``src/`` is edited.  A public function is wrapped and the
wrapper is bound in every ``gbsolve`` module that holds the original, so
calls through ``from .x import f`` and through ``x.f`` are both seen.  Methods
are patched on their classes.  Spans record (name, start, end, parent span,
job id) and stay in memory until ``write``; hot methods get counters only,
because a span per call would cost more than the call.
"""

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); the module is where the function is defined
SPAN_FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("parser", "parse_problem", "parser.parse_problem"),
    ("solver", "solve", "solver.solve"),
    ("solver", "find_branch_root", "solver.find_branch_root"),
    ("solver", "good_specialization_point", "solver.good_specialization_point"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "is_trivial", "groebner.is_trivial"),
    ("groebner", "eliminate_to_x1", "groebner.eliminate_to_x1"),
    ("euclidean", "strong_buchberger", "euclidean.strong_buchberger"),
    ("euclidean", "specialize_basis", "euclidean.specialize_basis"),
    ("euclidean", "specialization_locus", "euclidean.specialization_locus"),
    ("unipoly", "factor", "unipoly.factor"),
    ("unipoly", "is_irreducible", "unipoly.is_irreducible"),
    ("unipoly", "first_irreducible", "unipoly.first_irreducible"),
    ("fields", "adjoin_root", "fields.adjoin_root"),
]
# (module, class, method, span name)
SPAN_METHODS = [
    ("groebner", "Ideal", "groebner", "groebner.Ideal.groebner"),
    ("fields", "FieldTower", "__init__", "fields.FieldTower.init"),
]
COUNT_FUNCTIONS = [
    ("unipoly", "gcd", "unipoly.gcd"),
    ("unipoly", "xgcd", "unipoly.xgcd"),
]
COUNT_METHODS = [
    ("fields", "FieldTower", "mul", "fields.FieldTower.mul"),
    ("fields", "FieldTower", "inv", "fields.FieldTower.inv"),
    ("poly", "TermOrder", "key", "poly.TermOrder.key"),
    ("poly", "Polynomial", "__init__", "poly.Polynomial.init"),
]

SPAN_NAMES = [s[-1] for s in SPAN_FUNCTIONS + SPAN_METHODS]
COUNT_NAMES = [c[-1] for c in COUNT_FUNCTIONS + COUNT_METHODS]

# gathered by the observers below: name -> unit
STATS = {
    "solver.branch.root": "count",
    "solver.branch.locus": "count",
    "solver.branch.base": "count",
    "solver.tower_levels.max": "count",
    "groebner.buchberger.tracked_calls": "count",
    "groebner.buchberger.tracked_s": "s",
    "groebner.basis_size.max": "count",
    "euclidean.strong_basis_size.max": "count",
    "unipoly.factor.degree.max": "count",
}
# computed from the above, or by the caller from its round timings
DERIVED = {
    "groebner.buchberger_per_job": "calls/job",
    "groebner.basis_cache_hit_ratio": "ratio",
    "trace.jobs": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in COUNT_NAMES:
        units[f"{name}.calls"] = "count"
    units.update(STATS)
    units.update(DERIVED)
    return units


def _observe_buchberger(tracer, args, kwargs, result, duration):
    if kwargs.get("track"):
        tracer.stats["groebner.buchberger.tracked_calls"] += 1
        tracer.stats["groebner.buchberger.tracked_s"] += duration
    tracer.maximum("groebner.basis_size.max", len(result.elements))


def _observe_solve(tracer, args, kwargs, result, duration):
    outcome, steps = result
    for step in steps:
        tracer.stats[f"solver.branch.{step.branch}"] += 1
    tower = getattr(outcome, "tower", None)
    if tower is not None:
        tracer.maximum("solver.tower_levels.max", len(tower.levels))


def _observe_strong(tracer, args, kwargs, result, duration):
    tracer.maximum("euclidean.strong_basis_size.max", len(result.elements))


def _observe_factor(tracer, args, kwargs, result, duration):
    tracer.maximum("unipoly.factor.degree.max", len(args[0]) - 1)


OBSERVERS = {
    "groebner.buchberger": _observe_buchberger,
    "solver.solve": _observe_solve,
    "euclidean.strong_buchberger": _observe_strong,
    "unipoly.factor": _observe_factor,
}


class Tracer:
    """Spans and counters for one traced round; ``job`` tags new spans."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job)
        self.counts = {name: [0] for name in COUNT_NAMES}
        self.stats = defaultdict(int)
        self.job = None
        self._stack = []
        self._undo = []

    def maximum(self, name, value):
        self.stats[name] = max(self.stats[name], value)

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if observe is not None:
                observe(self, args, kwargs, result, end - start)
            return result

        return wrapper

    def _counter(self, name, fn):
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Patch the loaded gbsolve modules; ``uninstall`` reverts every patch."""
        modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "gbsolve"]
        for table, make in ((SPAN_FUNCTIONS, self._span), (COUNT_FUNCTIONS, self._counter)):
            for module, attr, name in table:
                orig = getattr(sys.modules[f"gbsolve.{module}"], attr)
                wrapped = make(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            self._undo.append((mod, key, orig))
        for table, make in ((SPAN_METHODS, self._span), (COUNT_METHODS, self._counter)):
            for module, cls_name, attr, name in table:
                cls = getattr(sys.modules[f"gbsolve.{module}"], cls_name)
                orig = vars(cls)[attr]
                setattr(cls, attr, make(name, orig))
                self._undo.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def metrics(self, jobs):
        """Per-layer metrics: calls, inclusive and self seconds per span name."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, parent, _job) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[index]
            # inclusive time counts only the outermost span of a recursive name
            up = parent
            while up >= 0 and self.spans[up][0] != name:
                up = self.spans[up][3]
            if up < 0:
                total[name] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNT_NAMES:
            out[f"{name}.calls"] = self.counts[name][0]
        for name in STATS:
            out[name] = self.stats.get(name, 0)
        buch = calls["groebner.buchberger"]
        out["groebner.buchberger_per_job"] = buch / jobs
        requests = calls["groebner.Ideal.groebner"]
        out["groebner.basis_cache_hit_ratio"] = 1 - buch / requests if requests else 0.0
        return out

    def write(self, path):
        """One JSON array per span: name, start, end, parent index, job."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
