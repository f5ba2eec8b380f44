"""Per-layer accounting for the traced round: spans, self time, counters.

Spans come from two sources. The program's own spans (``parse``,
``prepass``, ``rato_setup``, ``spoly_reduction``, ``case2_finish``,
``coeff_match``, ...) are read through :func:`repro.obs.spans.enable`. The
harness adds spans around public functions that have none of their own,
by swapping the module attribute the caller resolves for a wrapper while
the traced round runs (:class:`LayerTracer`). The untraced round never
installs them, so end-to-end numbers carry no harness instrumentation.

A layer's time is its *self* time: the span's duration minus the time its
child spans cover. Each op runs under a root ``op`` span opened by the
harness; the root's self time is the part of the op no span covers.
"""

from __future__ import annotations

import functools
import importlib
import os
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute path, span name) of every public function the harness
#: wraps. Each is the binding its caller resolves at call time:
#: ``repro.prepass.reduce`` imported ``sat_sweep`` by name, the prepass
#: pipeline imports the cache helpers inside the call, and so on.
WRAPPED = (
    ("repro.prepass.reduce", "build_canonical_aig", "prepass.fraig"),
    ("repro.prepass.reduce", "sat_sweep", "prepass.fraig"),
    ("repro.prepass.reduce", "differential_guard", "prepass.guard"),
    ("repro.jobs.cache", "canonical_cache_key", "cache.key"),
    ("repro.jobs.cache", "CanonicalPolyCache.lookup_or_compute", "cache.lookup"),
    ("repro.jobs.cache", "polynomial_payload", "payload"),
    ("repro.jobs.cache", "rehydrate_polynomial", "payload"),
    ("repro.core.composition", "compose_polynomials", "compose"),
    # The extraction entry points, so the work around the inner spans
    # (engine seeding, the Case-1 finish, the engage decision) is a layer of
    # its own instead of landing in whichever span called the extraction.
    ("repro.prepass.pipeline", "extract_canonical", "extract"),
    ("repro.core", "extract_canonical", "extract"),
    ("repro.core.composition", "abstract_circuit", "extract"),
)

ROOT = "op"

#: Span name -> per-layer time metric (seconds of self time).
TIME_METRIC = {
    "parse": "parse.s",
    "prepass": "prepass.canon.s",
    "prepass.fraig": "prepass.fraig.s",
    "prepass.guard": "prepass.guard.s",
    "cache.key": "cache.key.s",
    "cache.lookup": "cache.lookup.s",
    "payload": "payload.s",
    "extract": "extract.other.s",
    "rato_setup": "rato_setup.s",
    "spoly_reduction": "mask_reduce.s",
    "case2_finish": "case2_finish.s",
    "cone_slicing": "parallel.cone_slicing.s",
    "compose": "compose.s",
    "abstract": "verify.abstract.s",
    "coeff_match": "coeff_match.s",
    "counterexample_search": "counterexample.s",
    ROOT: "verify.other.s",
}

#: Collector counter -> per-layer count metric.
COUNTER_METRIC = {
    "prepass.sat_queries": "prepass.sat_queries",
    "prepass.nets_merged": "prepass.nets_merged",
    "prepass.gates_removed": "prepass.gates_removed",
    "prepass.canonical_key_hits": "cache.hits_canonical",
    "prepass.raw_key_hits": "cache.hits_raw",
    "cache.misses": "cache.misses",
    "abstraction.substitutions": "abstraction.substitutions",
    "abstraction.term_traffic": "abstraction.term_traffic",
}

#: Unit of every per-layer metric the traced round reports.
UNITS = {
    **{metric: "s" for metric in TIME_METRIC.values()},
    **{metric: "count" for metric in COUNTER_METRIC.values()},
    "cache.hit_ratio": "ratio",
    "abstraction.peak_terms": "count",
    "parallel.engaged": "count",
    "parallel.pool_utilization_pct": "%",
    "parallel.pool_idle_s": "s",
    "coverage": "ratio",
    "trace_overhead": "ratio",
}


def self_times(spans: Iterable[Dict], pid: Optional[int] = None) -> Dict[int, float]:
    """Self time of every span recorded by process ``pid`` (default: this one).

    Spans from other processes are left out: plane workers ship their
    ``cone_reduction`` spans back with their own pid and id space, and that
    time overlaps the parent span that waited for them.
    """
    pid = os.getpid() if pid is None else pid
    local = [s for s in spans if s["pid"] == pid]
    child_time: Dict[int, float] = {}
    for span in local:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + span["dur"]
    return {
        span["id"]: max(0.0, span["dur"] - child_time.get(span["id"], 0.0))
        for span in local
    }


def fold_op(
    spans: List[Dict], pid: Optional[int] = None
) -> Tuple[Dict[str, float], float]:
    """Per-layer self seconds of one op's spans, plus the op's duration.

    Returns ``({metric: seconds}, root duration)``. A span name with no
    metric raises :class:`KeyError`, so a span added to the program cannot
    drop out of the accounting unnoticed.
    """
    pid = os.getpid() if pid is None else pid
    own = self_times(spans, pid)
    by_metric: Dict[str, float] = {}
    root_dur = 0.0
    for span in spans:
        if span["pid"] != pid:
            continue
        metric = TIME_METRIC.get(span["name"])
        if metric is None:
            raise KeyError(f"span {span['name']!r} maps to no layer metric")
        if span["name"] == ROOT and span["parent"] is None:
            root_dur += span["dur"]
        by_metric[metric] = by_metric.get(metric, 0.0) + own[span["id"]]
    return by_metric, root_dur


def coverage(layer_seconds: Dict[str, float], wall: float) -> float:
    """Share of op wall time attributed to a layer other than the root."""
    if wall <= 0:
        return 0.0
    return (wall - layer_seconds.get(TIME_METRIC[ROOT], 0.0)) / wall


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _spanned(fn: Callable, name: str) -> Callable:
    from repro.obs import span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name):
            return fn(*args, **kwargs)

    return wrapper


class LayerTracer:
    """One traced pass: runs ops under spans and sums their layers.

    Entering installs the wrappers of :data:`WRAPPED`; leaving restores the
    originals. :meth:`run` times one op under a fresh collector and
    :meth:`account` folds what it recorded — kept apart so a fold error is
    a harness error, never an op failure.
    """

    def __init__(self) -> None:
        self.layer_seconds = {metric: 0.0 for metric in TIME_METRIC.values()}
        self.counters: Dict[str, float] = {}
        self.peak_terms = 0
        self.engaged = 0
        self.utilization: List[float] = []
        self.wall = 0.0
        self._pending: List[Dict] = []
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        for module, path, name in WRAPPED:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _spanned(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def run(self, fn: Callable):
        from repro import obs

        collector = obs.enable(obs.TraceCollector())
        obs.reset_context()
        try:
            with obs.span(ROOT):
                return fn()
        finally:
            obs.disable()
            self._pending.append(collector.snapshot())

    def account(self) -> None:
        for snapshot in self._pending:
            by_metric, root_dur = fold_op(snapshot["spans"])
            for metric, seconds in by_metric.items():
                self.layer_seconds[metric] += seconds
            self.wall += root_dur
            self.engaged += sum(
                1
                for s in snapshot["spans"]
                if s["name"] == "spoly_reduction" and "workers" in s["tags"]
            )
            for name, value in snapshot["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            gauges = snapshot["gauges"]
            self.peak_terms = max(self.peak_terms, gauges.get("abstraction.peak_terms", 0))
            if "parallel.pool_utilization_pct" in gauges:
                self.utilization.append(gauges["parallel.pool_utilization_pct"])
        self._pending.clear()

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric of the ops run so far (one pass)."""
        out = dict(self.layer_seconds)
        for counter, metric in COUNTER_METRIC.items():
            out[metric] = self.counters.get(counter, 0)
        hits = out["cache.hits_canonical"] + out["cache.hits_raw"]
        lookups = hits + out["cache.misses"]
        out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
        out["abstraction.peak_terms"] = self.peak_terms
        out["parallel.engaged"] = self.engaged
        out["parallel.pool_utilization_pct"] = (
            sum(self.utilization) / len(self.utilization) if self.utilization else 0.0
        )
        out["parallel.pool_idle_s"] = self.counters.get("parallel.pool_idle_ms", 0) / 1000.0
        out["coverage"] = coverage(self.layer_seconds, self.wall)
        return out
