"""Spans around the library's public calls, and the per-layer metrics
computed from them.

The benchmark measures layers from outside: it wraps the names callers use
(the functions `selfnorm.report` imported, `report.run_sweep`,
`report.render_csv`, and the direct calls the workloads make) and edits
nothing in the package.  Spans stay in memory until the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import itertools
import json
import statistics
import time
import tracemalloc
import types
import warnings

# Names `selfnorm.report` imported, looked up at call time by run_sweep and
# cli, with the layer each belongs to.
REPORT_NAMES = {
    "exact_tail": "oracle",
    "estimate_tail": "simulate",
    "bound_bn": "bounds",
    "bound_corollary": "bounds",
    "bernstein_numeric": "bounds",
    "run_sweep": "report",
    "render_csv": "report",
}
API_NAMES = {
    "exact_tail": "oracle",
    "exact_tail_multi": "oracle",
    "exact_tstat_tail": "oracle",
    "estimate_tail": "simulate",
    "efron_check": "simulate",
}
LAW_KINDS = ("rademacher", "uniform_symmetric", "gaussian", "symmetric_pareto")
# Monte Carlo rates are keyed by law kind for n up to this size; larger n
# (the n = 1000 block-memory cell) gets its own key so it does not swamp
# the per-law rates.
SMALL_N = 100

_MB = 1024.0 * 1024.0


def raw_api(sn) -> types.SimpleNamespace:
    """The functions the workloads call, untraced."""
    api = {name: getattr(sn, name) for name in API_NAMES}
    return types.SimpleNamespace(cli_main=sn.cli.main, **api)


SPAN_FIELDS = ("id", "parent", "run", "name", "layer", "start", "end", "cpu_s",
               "attrs", "peak_alloc_bytes")


class Span:
    __slots__ = ("id", "parent", "run", "name", "layer", "start", "end", "cpu",
                 "child_s", "attrs", "peak")

    def __init__(self, span_id, parent, run, name, layer):
        self.id = span_id
        self.parent = parent
        self.run = run
        self.name = name
        self.layer = layer
        self.child_s = 0.0
        self.attrs = {}
        self.peak = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> list:
        """One row of the span file, in the order of SPAN_FIELDS."""
        parent = self.parent.id if self.parent else None
        return [self.id, parent, self.run, self.name, self.layer, self.start,
                self.end, self.cpu, self.attrs, self.peak]


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _oracle_counter(fn):
    arguments = _bound(fn)

    def count(span, args, kwargs, result):
        a = arguments(args, kwargs)
        span.attrs["n"] = len(a["mags"])
        span.attrs["thresholds"] = len(a["xs"]) if "xs" in a else 1

    return count


def _simulate_counter(fn):
    arguments = _bound(fn)

    def count(span, args, kwargs, result):
        a = arguments(args, kwargs)
        spec, n = a["spec"], int(a["n"])
        span.attrs.update(
            n=n,
            kind=spec.kind,
            stat=a.get("stat", "efron"),
            trials=int(a["trials"]),
            stream=f"{a['seed']}:{n}:{spec!r}",
            degenerate=getattr(result, "degenerate_count", 0),
        )

    return count


def _counter(name: str, layer: str, fn):
    if layer == "oracle":
        return _oracle_counter(fn)
    if layer == "simulate":
        return _simulate_counter(fn)
    if name == "bernstein_numeric":
        return lambda span, a, k, result: span.attrs.update(iterations=result.iterations)
    if name == "run_sweep":
        return lambda span, a, k, result: span.attrs.update(cells=len(result))
    if name == "render_csv":
        return lambda span, a, k, result: span.attrs.update(csv_bytes=len(result.encode()))
    return None


class Tracer:
    """Collects spans for calls made through .api and, inside patched(),
    through the names `selfnorm.report` looks up."""

    def __init__(self, sn):
        self.sn = sn
        self.spans: list[Span] = []
        self.run = None
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self.api = types.SimpleNamespace(
            cli_main=self.wrap("cli", "main", sn.cli.main),
            **{name: self.wrap(layer, name, getattr(sn, name))
               for name, layer in API_NAMES.items()},
        )
        self._report = {
            name: self.wrap(layer, name, getattr(sn.report, name))
            for name, layer in REPORT_NAMES.items()
        }

    @contextlib.contextmanager
    def patched(self, run: str):
        """Trace pass `run`: report's names are swapped for traced ones."""
        saved = {name: getattr(self.sn.report, name) for name in self._report}
        self.run = run
        for name, traced in self._report.items():
            setattr(self.sn.report, name, traced)
        try:
            yield self.api
        finally:
            for name, fn in saved.items():
                setattr(self.sn.report, name, fn)
            self.run = None

    def wrap(self, layer: str, name: str, fn):
        on_result = _counter(name, layer, fn)
        kernel = layer in ("oracle", "simulate")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(next(self._ids), parent, self.run, name, layer)
            self._stack.append(span)
            span.cpu = time.process_time()
            span.start = time.perf_counter()
            try:
                if kernel:
                    result = _kernel_call(span, fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - span.cpu
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """Gzipped JSON lines: a header of SPAN_FIELDS, then one row per span."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as handle:
            handle.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.record()) + "\n")


def _kernel_call(span, fn, args, kwargs):
    """Call an oracle or simulate function under a fresh tracemalloc.

    Tracing starts with the call, so its peak is the call's own high-water
    mark (numpy reports its buffers to tracemalloc).  Only these calls are
    traced: tracemalloc slows the Python-heavy bound code many times over.
    Warnings are counted, then passed on to the caller.
    """
    tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
    finally:
        span.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    span.attrs["warnings"] = len(caught)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return result


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all its spans)."""
    by_layer = {layer: [s for s in spans if s.layer == layer]
                for layer in ("bounds", "oracle", "simulate", "report", "cli")}

    def busy(layer, name=None):
        return sum(s.duration for s in by_layer[layer] if name is None or s.name == name)

    def self_s(layer):
        return sum(s.duration - s.child_s for s in by_layer[layer])

    def total(layer, key):
        return sum(s.attrs.get(key, 0) for s in by_layer[layer])

    m = {}
    bounds = by_layer["bounds"]
    m["bounds.calls"] = len(bounds)
    m["bounds.busy_s"] = busy("bounds")
    m["bounds.evals_per_s"] = _rate(len(bounds), m["bounds.busy_s"])
    m["bounds.bernstein_iterations"] = total("bounds", "iterations")

    oracle = by_layer["oracle"]
    m["oracle.calls"] = len(oracle)
    m["oracle.busy_s"] = busy("oracle")
    m["oracle.cpu_s"] = sum(s.cpu for s in oracle)
    m["oracle.sign_vectors"] = sum(1 << s.attrs["n"] for s in oracle)
    m["oracle.sign_vectors_per_s"] = _rate(m["oracle.sign_vectors"], m["oracle.busy_s"])
    m["oracle.thresholds_per_pass"] = _rate(total("oracle", "thresholds"), len(oracle))
    m["oracle.peak_alloc_mb"] = peak_alloc_mb(oracle)

    sim = by_layer["simulate"]
    m["simulate.calls"] = len(sim)
    m["simulate.busy_s"] = busy("simulate")
    m["simulate.cpu_s"] = sum(s.cpu for s in sim)
    m["simulate.trials"] = total("simulate", "trials")
    for kind in LAW_KINDS + ("large_n",):
        cells = [s for s in sim if _rate_key(s) == kind]
        m[f"simulate.trials_per_s.{kind}"] = _rate(
            sum(s.attrs["trials"] for s in cells), sum(s.duration for s in cells)
        )
    m["simulate.uniforms"] = sum(s.attrs["trials"] * 2 * s.attrs["n"] for s in sim)
    rows = {}
    for s in sim:
        rows[s.attrs["stream"]] = max(rows.get(s.attrs["stream"], 0), s.attrs["trials"])
    m["simulate.stream_reuse"] = _rate(m["simulate.trials"], sum(rows.values()))
    m["simulate.degenerate"] = total("simulate", "degenerate")
    m["simulate.warnings"] = total("simulate", "warnings")
    m["simulate.peak_alloc_mb"] = peak_alloc_mb(sim)

    m["report.cells"] = total("report", "cells")
    m["report.busy_s"] = busy("report")
    m["report.self_s"] = self_s("report")
    m["report.render_s"] = busy("report", "render_csv")
    m["report.csv_bytes"] = total("report", "csv_bytes")

    m["cli.busy_s"] = busy("cli")
    m["cli.self_s"] = self_s("cli")
    return m


def _rate_key(span) -> str:
    return span.attrs["kind"] if span.attrs["n"] <= SMALL_N else "large_n"


def peak_alloc_mb(spans: list[Span]) -> float:
    return max((s.peak for s in spans), default=0) / _MB


def layer_metrics(tracer: Tracer, runs, overhead_s: float) -> dict:
    """Median of each per-pass metric over the traced passes, plus the
    tracing overhead: traced minus untraced wall_s."""
    per_pass = [pass_metrics([s for s in tracer.spans if s.run == run]) for run in runs]
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_s"] = overhead_s
    return metrics
