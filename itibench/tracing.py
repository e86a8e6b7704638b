"""Per-layer spans and counts, recorded from the benchmark's own code.

The tracer wraps the public functions of each itiguard layer where they are
called: it rebinds every module attribute that refers to a wrapped function
(``cli.parse_itinerary`` and ``gateway.parse_itinerary`` both point at
``model.parse_itinerary``) and patches provider methods on their classes.
Nothing inside the package changes; ``uninstall`` puts every original back.

A span records its name, start, end, parent span and an optional value
(issue count, attempts, bytes written). A layer's self time is its span's
duration minus the part of that interval its child spans cover; children of
one span may overlap when they run on the ``bench`` thread pool, so the
covered part is the union of their intervals. Spans are folded into
per-name totals after every op, so memory stays flat over a run.

Spans are timed in wall time, unscaled: a CPU clock cannot split time
between threads that overlap, and costs a system call per reading.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from collections import defaultdict

from itiguard import cli, correction, durations, gateway, metrics, model, prompts, validation

import workloads

LOOKUP = "durations.lookup"

# (owner, attribute, span name, value of a successful call from (args, result))
FUNCTIONS = (
    (model, "parse_itinerary", "model.parse", None),
    (model, "render_itinerary", "model.render", None),
    (validation, "validate", "validation.validate", lambda args, report: (len(report.issues),)),
    (validation, "resolve_segment_bounds", "validation.resolve", None),
    (correction, "correct", "correction.correct",
     lambda args, result: (result[1].passes, len(result[1].adjustments))),
    (durations, "save_cache", "durations.cache_write", lambda args, result: (os.stat(args[1]).st_size,)),
    (gateway, "generate_itinerary", "gateway.generate", lambda args, result: (result[1],)),
    (prompts, "build_base_prompt", "prompts.build", None),
    (prompts, "build_feedback", "prompts.build", None),
    (metrics, "load_manifest", "metrics.load_manifest", None),
    (metrics, "aggregate", "metrics.aggregate", None),
    (metrics, "render_stats", "metrics.render_stats", None),
    (cli, "cmd_bench", "cli.bench", None),
)
PROVIDERS = (
    durations.CachedProvider,
    durations.FixtureProvider,
    durations.GreatCircleProvider,
    durations.RemoteDurationClient,
)

# Per-layer metric -> unit. "1/op" counts are per benchmark op, "1/call"
# values are per call of the layer's function, "us" is self time per call.
PER_LAYER_UNITS = {
    "model.parse_calls": "1/op",
    "model.parse_self_us": "us",
    "model.render_calls": "1/op",
    "model.render_self_us": "us",
    "validation.validate_calls": "1/op",
    "validation.validate_self_us": "us",
    "validation.resolve_calls": "1/op",
    "validation.issues": "1/call",
    "correction.correct_calls": "1/op",
    "correction.correct_self_us": "us",
    "correction.passes": "1/call",
    "correction.adjustments": "1/call",
    "durations.lookup_calls": "1/op",
    "durations.lookup_self_us": "us",
    "durations.fetch_attempts": "1/op",
    "durations.fetch_failures": "1/op",
    "durations.hit_ratio": "ratio",
    "durations.cache_writes": "1/op",
    "durations.cache_bytes_written": "B/op",
    "durations.cache_write_us": "us",
    "gateway.generate_self_us": "us",
    "gateway.attempts": "1/call",
    "gateway.parse_ok_ratio": "ratio",
    "prompts.build_calls": "1/op",
    "prompts.build_self_us": "us",
    "metrics.load_manifest_us": "us",
    "metrics.aggregate_self_us": "us",
    "metrics.render_stats_us": "us",
    "cli.bench_self_us": "us",
    "trace.overhead_ratio": "ratio",
}


class _Totals:
    __slots__ = ("calls", "errors", "self_ns", "values")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_ns = 0
        self.values: list[int] = []

    def value(self, index: int) -> int:
        return self.values[index] if index < len(self.values) else 0


def _covered_ns(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    covered = 0
    reach = start
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, reach), min(t1, end)
        if t1 > t0:
            covered += t1 - t0
            reach = t1
    return covered


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._main_stack = self._stack()
        self._ids = itertools.count(1)
        self._records: list[tuple] = []
        self._undo: list[tuple[object, str, object]] = []
        self.totals: dict[str, _Totals] = {}
        self.ops = 0

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, on_result=None, value=None):
        stack = self._stack()
        # A worker thread's first span belongs to whatever the main thread is waiting in.
        parent = stack[-1][0] if stack else (self._main_stack[-1][0] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append((span_id, name))
        ok = False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if ok and on_result is not None:
                value = on_result(args, result)
            self._records.append((span_id, parent, name, start, end, value, ok))
        return result

    def _span(self, name, fn, on_result):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, on_result)

        return wrapper

    def _lookup(self, fn):
        """Provider lookups: a lookup made inside another (a cache miss going
        to the inner provider) is counted as a miss, not as a second lookup."""

        def wrapper(provider, route):
            stack = self._stack()
            if stack and stack[-1][1] == LOOKUP:
                self._records.append((None, stack[-1][0], "durations.miss", 0, 0, None, True))
                return fn(provider, route)
            cached = (int(isinstance(provider, durations.CachedProvider)),)
            return self._call(LOOKUP, fn, (provider, route), {}, value=cached)

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "itiguard" and not module_name.startswith("itiguard."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        for owner, attr, name, on_result in FUNCTIONS:
            original = getattr(owner, attr)
            self._rebind(original, self._span(name, original, on_result))
        for cls in PROVIDERS:
            original = cls.route_duration
            cls.route_duration = self._lookup(original)
            self._undo.append((cls, "route_duration", original))
        fetch = workloads.FakeFlightService.fetch
        workloads.FakeFlightService.fetch = self._span("durations.fetch", fetch, None)
        self._undo.append((workloads.FakeFlightService, "fetch", fetch))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def end_op(self) -> None:
        """Fold the spans of the op that just ended into the per-name totals."""
        records, self._records = self._records, []
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span_id, parent, _, start, end, _, _ in records:
            if parent is not None and span_id is not None:
                children[parent].append((start, end))
        for span_id, _, name, start, end, value, ok in records:
            totals = self.totals.setdefault(name, _Totals())
            totals.calls += 1
            totals.errors += not ok
            totals.self_ns += end - start - _covered_ns(children.get(span_id, []), start, end)
            for i, v in enumerate(value or ()):
                if i < len(totals.values):
                    totals.values[i] += v
                else:
                    totals.values.append(v)
        self.ops += 1

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        ops = max(self.ops, 1)

        def get(name: str) -> _Totals:
            return self.totals.get(name) or _Totals()

        def per_op(name: str) -> float:
            return get(name).calls / ops

        def self_us(name: str) -> float:
            t = get(name)
            return t.self_ns / t.calls / 1e3 if t.calls else 0.0

        def per_call(name: str, index: int) -> float:
            t = get(name)
            return t.value(index) / t.calls if t.calls else 0.0

        cached_lookups = get(LOOKUP).value(0)
        generate = get("gateway.generate")
        return {
            "model.parse_calls": per_op("model.parse"),
            "model.parse_self_us": self_us("model.parse"),
            "model.render_calls": per_op("model.render"),
            "model.render_self_us": self_us("model.render"),
            "validation.validate_calls": per_op("validation.validate"),
            "validation.validate_self_us": self_us("validation.validate"),
            "validation.resolve_calls": per_op("validation.resolve"),
            "validation.issues": per_call("validation.validate", 0),
            "correction.correct_calls": per_op("correction.correct"),
            "correction.correct_self_us": self_us("correction.correct"),
            "correction.passes": per_call("correction.correct", 0),
            "correction.adjustments": per_call("correction.correct", 1),
            "durations.lookup_calls": per_op(LOOKUP),
            "durations.lookup_self_us": self_us(LOOKUP),
            "durations.fetch_attempts": per_op("durations.fetch"),
            "durations.fetch_failures": get("durations.fetch").errors / ops,
            "durations.hit_ratio": (
                1 - get("durations.miss").calls / cached_lookups if cached_lookups else 0.0
            ),
            "durations.cache_writes": per_op("durations.cache_write"),
            "durations.cache_bytes_written": get("durations.cache_write").value(0) / ops,
            "durations.cache_write_us": self_us("durations.cache_write"),
            "gateway.generate_self_us": self_us("gateway.generate"),
            "gateway.attempts": per_call("gateway.generate", 0),
            "gateway.parse_ok_ratio": (
                (generate.calls - generate.errors) / generate.value(0) if generate.value(0) else 0.0
            ),
            "prompts.build_calls": per_op("prompts.build"),
            "prompts.build_self_us": self_us("prompts.build"),
            "metrics.load_manifest_us": self_us("metrics.load_manifest"),
            "metrics.aggregate_self_us": self_us("metrics.aggregate"),
            "metrics.render_stats_us": self_us("metrics.render_stats"),
            "cli.bench_self_us": self_us("cli.bench"),
            "trace.overhead_ratio": overhead_ratio,
        }
