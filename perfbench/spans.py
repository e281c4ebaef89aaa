"""Span recording for the traced run and the per-layer metrics built from it.

The library is measured from outside: while a `Tracer` is installed, the
names the benchmark and the solvers call through are replaced by wrappers
that record one span per call (name, start, end, parent span, problem id)
plus a few counts.  `jointradius.radius` is the function that shadows the
submodule of that name, so modules are reached through `sys.modules`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from collections import Counter, defaultdict

_RADIUS = "jointradius.radius"


def _count_pairs(tracer, args, out):
    tracer.counts["spaces.admissible_pairs.pairs_out"] += len(out)


def _count_dedup(tracer, args, out):
    tracer.counts["radius.orbit_dedup.pairs_in"] += len(args[0])
    tracer.counts["radius.orbit_dedup.orbits_out"] += len(out)


def _count_hull(tracer, args, out):
    tracer.counts["lp.hull_membership.points_in"] += args[0].points.shape[0]
    tracer.counts["lp.hull_membership.feasible"] += bool(out.feasible)


def _record_start(tracer, args, out):
    tracer.start_values.append(out[0])


def _count_useful_starts(tracer, args, out):
    """A start is useful when it ends within the attaining window of the best."""
    tol = sys.modules[_RADIUS].ATTAIN_TOL_SMOOTH
    cut = out.value - tol * max(out.value, 0.0)
    tracer.counts["radius.starts"] += len(tracer.start_values)
    tracer.counts["radius.useful_starts"] += sum(v >= cut for v in tracer.start_values)
    tracer.start_values.clear()


# (module, attribute, span name, counter).  Package-level names are the
# public functions the pipeline calls; the rest are the cross-module names
# the solvers and the CLI call through.
HOOKS = (
    ("jointradius", "generators", "subdiff.generators", None),
    ("jointradius", "smoothness", "subdiff.smoothness", None),
    ("jointradius", "gateaux_one_sided", "subdiff.gateaux_one_sided", None),
    ("jointradius", "orth_scalar", "orth.orth_scalar", None),
    ("jointradius", "orth_subspace", "orth.orth_subspace", None),
    (_RADIUS, "radius_smooth", "radius.radius_smooth", _count_useful_starts),
    (_RADIUS, "radius_exact", "radius.radius_exact", None),
    (_RADIUS, "_ascend", "radius.ascend", _record_start),
    (_RADIUS, "_gradient", "radius.gradient", None),
    (_RADIUS, "_objective", "radius.objective", None),
    (_RADIUS, "orbit_dedup", "radius.orbit_dedup", _count_dedup),
    (_RADIUS, "admissible_pairs", "spaces.admissible_pairs", _count_pairs),
    (_RADIUS, "aggregate", "optuples.aggregate", None),
    ("jointradius.orth", "hull_membership", "lp.hull_membership", _count_hull),
    ("jointradius.oracle", "sampled_radius", "oracle.sampled_radius", None),
    ("jointradius.cli", "parse", "cli.parse", None),
    ("jointradius.cli", "audit", "oracle.audit", None),
    ("jointradius.cli", "sampled_radius", "oracle.sampled_radius", None),
    ("jointradius.cli", "radius_smooth", "radius.radius_smooth", _count_useful_starts),
    ("jointradius.cli", "radius_exact", "radius.radius_exact", None),
    ("jointradius.cli", "generators", "subdiff.generators", None),
    ("jointradius.cli", "smoothness", "subdiff.smoothness", None),
    ("jointradius.cli", "gateaux_one_sided", "subdiff.gateaux_one_sided", None),
    ("jointradius.cli", "orth_scalar", "orth.orth_scalar", None),
    ("jointradius.cli", "orth_subspace", "orth.orth_subspace", None),
)

# per_layer metric name -> unit, in the order BENCHMARK.json lists them.
# Counts and times are per problem (a CLI invocation is one problem).
PER_LAYER = {
    "radius.radius_smooth.calls": "count/problem",
    "radius.radius_smooth.self_ms": "ms/problem",
    "radius.radius_exact.calls": "count/problem",
    "radius.radius_exact.self_ms": "ms/problem",
    "radius.ascend.calls": "count/problem",
    "radius.ascend.self_ms": "ms/problem",
    "radius.gradient.calls": "count/problem",
    "radius.gradient.self_ms": "ms/problem",
    "radius.objective.calls": "count/problem",
    "radius.objective.self_ms": "ms/problem",
    "radius.iters_per_start": "iter/start",
    "radius.objective_per_iter": "eval/iter",
    "radius.useful_starts_frac": "frac",
    "radius.multistart_shortfall_frac": "frac",
    "radius.orbit_dedup.calls": "count/problem",
    "radius.orbit_dedup.self_ms": "ms/problem",
    "radius.orbit_dedup.pairs_in": "count/problem",
    "radius.orbit_dedup.orbits_out": "count/problem",
    "spaces.admissible_pairs.calls": "count/problem",
    "spaces.admissible_pairs.self_ms": "ms/problem",
    "spaces.admissible_pairs.pairs_out": "count/problem",
    "optuples.aggregate.calls": "count/problem",
    "optuples.aggregate.self_ms": "ms/problem",
    "subdiff.generators.self_ms": "ms/problem",
    "subdiff.smoothness.self_ms": "ms/problem",
    "subdiff.gateaux_one_sided.self_ms": "ms/problem",
    "orth.orth_scalar.self_ms": "ms/problem",
    "orth.orth_subspace.self_ms": "ms/problem",
    "lp.hull_membership.calls": "count/problem",
    "lp.hull_membership.self_ms": "ms/problem",
    "lp.hull_membership.points_in": "count/problem",
    "lp.hull_membership.feasible_frac": "frac",
    "oracle.audit.self_ms": "ms/problem",
    "oracle.sampled_radius.self_ms": "ms/problem",
    "cli.main.self_ms": "ms/problem",
    "cli.parse.self_ms": "ms/problem",
    "cli.startup_ms": "ms/problem",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """In-memory span store; `installed()` puts the wrappers in place."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, problem id)
        self.counts = Counter()
        self.start_values = []
        self.problem = -1
        self._stack = []
        self.skipped = []  # hooks whose attribute is absent from a loaded module

    def span(self, name, fn, count=None):
        """`fn` wrapped so that each call records a span named `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.problem)
            if count is not None:
                count(self, args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        self.skipped = []
        try:
            for module_name, attr, name, count in HOOKS:
                module = sys.modules.get(module_name)
                if module is None:  # e.g. the CLI, outside the CLI workload
                    continue
                if not hasattr(module, attr):
                    self.skipped.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.span(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times_ns(self) -> dict:
        """Total self time per span name: span time minus child-span time."""
        child = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(int)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return out

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def write(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tproblem\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, problems, overhead_frac, startup_ms, multistart_answers, shortfalls):
    """(metrics, bases): every PER_LAYER value and the count it is taken over."""
    self_ns = tracer.self_times_ns()
    calls = tracer.calls()
    counts = tracer.counts
    ascend, gradient, objective = calls["radius.ascend"], calls["radius.gradient"], calls["radius.objective"]
    starts, useful = counts["radius.starts"], counts["radius.useful_starts"]
    lps, feasible = calls["lp.hull_membership"], counts["lp.hull_membership.feasible"]
    out = {
        "radius.iters_per_start": (_ratio(gradient, ascend), f"{gradient} gradients / {ascend} starts"),
        "radius.objective_per_iter": (_ratio(objective, gradient), f"{objective} objectives / {gradient} gradients"),
        "radius.useful_starts_frac": (_ratio(useful, starts), f"{useful} useful / {starts} starts"),
        "radius.multistart_shortfall_frac": (
            _ratio(shortfalls, multistart_answers),
            f"{shortfalls} below sampled_radius / {multistart_answers} multi-start answers",
        ),
        "lp.hull_membership.feasible_frac": (_ratio(feasible, lps), f"{feasible} feasible / {lps} LPs"),
        "cli.startup_ms": (startup_ms, f"{problems} invocations"),
        "trace.overhead_frac": (overhead_frac, f"{problems} problems, each run untraced and traced"),
    }
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if metric in out:
            continue
        if stat == "calls":
            out[metric] = (_ratio(calls[layer], problems), f"{calls[layer]} calls / {problems} problems")
        elif stat == "self_ms":
            out[metric] = (_ratio(self_ns[layer] / 1e6, problems), f"{calls[layer]} calls / {problems} problems")
        else:
            out[metric] = (_ratio(counts[metric], problems), f"{counts[metric]} / {problems} problems")
    return {m: out[m][0] for m in PER_LAYER}, {m: out[m][1] for m in PER_LAYER}
