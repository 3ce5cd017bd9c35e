"""Layer-boundary tracing of byzgrad from outside the package.

`Tracer.install()` replaces the names that byzgrad's callers look up at
call time (module globals and class attributes) with wrappers that open
a span, call the original and close the span; `uninstall()` puts the
originals back.  Generators returned by `SubstreamSource.generator` are
handed out behind a proxy that records a span around every draw.  The
wrappers return exactly what the originals return, so tracing changes
no output byte.

While `record_spans` is set, up to MAX_SPANS spans are kept in memory as (id, parent
id, name, start, end) and written out by `write_spans`; per-name totals
are kept either way.  A span's self time is its duration minus
the time its child spans cover.  A hook whose name is missing from the
package is skipped; every metric that depends on it is then reported as
absent, naming the hook, and never as zero.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute path, span name) for every hooked name.
HOOKS = (
    ("byzgrad.streams", "SubstreamSource.generator", "streams.reset"),
    ("byzgrad.problems", "Quadratic.gradient", "problems"),
    ("byzgrad.problems", "Quadratic.cost", "problems"),
    ("byzgrad.problems", "LeastSquares.gradient", "problems"),
    ("byzgrad.problems", "LeastSquares.cost", "problems"),
    ("byzgrad.problems", "CosineBowl.gradient", "problems"),
    ("byzgrad.problems", "CosineBowl.cost", "problems"),
    ("byzgrad.simulator", "estimate_gradient", "problems"),
    ("byzgrad.simulator", "apply_attack", "adversary"),
    ("byzgrad.resilience", "apply_attack", "adversary"),
    ("byzgrad.aggregation", "_select", "aggregation.select"),
    ("byzgrad.simulator", "_select", "aggregation.select"),
    ("byzgrad.resilience", "_select", "aggregation.select"),
    ("byzgrad.aggregation", "_pairwise_sq_dists_raw", "aggregation.pairwise"),
    ("byzgrad.aggregation", "_subset_krum_scores", "aggregation.scoring"),
    ("byzgrad.simulator", "run_round", "simulator.round"),
    ("byzgrad.resilience", "estimate_resilience", "resilience.estimate"),
    ("byzgrad.cli", "parse_config", "cli.parse"),
    ("byzgrad.cli", "emit_trace_csv", "cli.emit"),
)

# metric -> (unit, span name, what to read: "count", "self_s" or a counter name)
METRICS = {
    "streams.resets": ("count", "streams.reset", "count"),
    "streams.reset_s": ("s", "streams.reset", "self_s"),
    "streams.draw_s": ("s", "streams.draw", "self_s"),
    "problems.calls": ("count", "problems", "count"),
    "problems.s": ("s", "problems", "self_s"),
    "adversary.calls": ("count", "adversary", "count"),
    "adversary.s": ("s", "adversary", "self_s"),
    "aggregation.calls": ("count", "aggregation.select", "count"),
    "aggregation.select_s": ("s", "aggregation.select", "self_s"),
    "aggregation.pairwise_s": ("s", "aggregation.pairwise", "self_s"),
    "aggregation.pairs": ("count", "aggregation.pairwise", "pairs"),
    "aggregation.dist_flops": ("flop", "aggregation.pairwise", "dist_flops"),
    "aggregation.scoring_s": ("s", "aggregation.scoring", "self_s"),
    "aggregation.scored_workers": ("count", "aggregation.scoring", "scored_workers"),
    "simulator.rounds": ("count", "simulator.round", "count"),
    "simulator.s": ("s", "simulator.round", "self_s"),
    "resilience.trials": ("count", "resilience.estimate", "trials"),
    "resilience.s": ("s", "resilience.estimate", "self_s"),
    "cli.parse_s": ("s", "cli.parse", "self_s"),
    "cli.emit_s": ("s", "cli.emit", "self_s"),
    "cli.bytes_written": ("B", "cli.emit", "bytes_written"),
}

# spans kept for the span file; the totals behind the metrics are not capped
MAX_SPANS = 200_000

_DRAW_METHODS = ("standard_normal", "integers", "random", "normal", "uniform", "choice")


def _count_pairwise(args, kwargs, result):
    n, d = args[0].shape
    pairs = n * (n - 1) // 2
    return {"pairs": pairs, "dist_flops": 3 * d * pairs}


def _count_scoring(args, kwargs, result):
    return {"scored_workers": len(args[1])}


def _count_estimate(args, kwargs, result):
    return {"trials": result.trials}


def _count_emit(args, kwargs, result):
    return {"bytes_written": len(result.encode("utf-8"))}


_COUNTERS = {
    "aggregation.pairwise": _count_pairwise,
    "aggregation.scoring": _count_scoring,
    "resilience.estimate": _count_estimate,
    "cli.emit": _count_emit,
}


class _TracedGenerator:
    """Stands in for a numpy Generator; every draw becomes a streams.draw span."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name in _DRAW_METHODS:
            tracer = self._tracer
            return lambda *args, **kwargs: tracer.call("streams.draw", attr, args, kwargs)
        return attr


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._installed: list[tuple[object, str, object]] = []
        self.missing_hooks: list[str] = []
        self.record_spans = True
        self.reset_totals()

    def reset_totals(self):
        """Start a fresh set of per-span-name totals (counts, self time, counters)."""
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            elapsed = end - start
            if self._stack:
                self._stack[-1][1] += elapsed
            if self.record_spans and len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, name, start, end))
            tot = self.totals[name]
            tot["count"] += 1
            tot["self_s"] += elapsed - frame[1]
        counter = _COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                tot[key] += value
        return result

    def _wrap(self, name, fn):
        tracer = self
        if name == "streams.reset":
            def generator(*args, **kwargs):
                return _TracedGenerator(tracer.call(name, fn, args, kwargs), tracer)
            return generator

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return wrapper

    def install(self):
        self.missing_hooks = []
        for module_name, path, name in HOOKS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing_hooks.append(f"{module_name}.{path}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def metrics(self) -> dict[str, float | None]:
        """Per-metric values from the current totals; None where a hook is missing."""
        missing_spans = {name for module, path, name in HOOKS
                         if f"{module}.{path}" in self.missing_hooks}
        out = {}
        for metric, (_, span, field) in METRICS.items():
            out[metric] = None if span in missing_spans else float(self.totals[span][field])
        return out

    def missing_hooks_of(self, metric: str) -> list[str]:
        span = METRICS[metric][1]
        return [f"{module}.{path}" for module, path, name in HOOKS
                if name == span and f"{module}.{path}" in self.missing_hooks]

    def write_spans(self, path: str):
        """One line per span: id,parent,name,start_s,end_s (perf_counter seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                handle.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")
