"""The shared prepass → abstraction pipeline stage.

:func:`abstract_canonical` is the single cache-aware abstraction engine
behind every entry point — ``verify_equivalence`` (CLI ``repro verify``
and trace replay), the batch executor's ``run_verify``/``run_abstract``
(batch manifests and the service scheduler both call those bodies), and
the reverse-engineering probes. It owns the full contract:

* resolve the prepass tri-state (explicit flag > ``REPRO_PREPASS`` env),
* with a cache attached, probe the **raw** key first — the structure of
  the netlist exactly as submitted. An exact repeat hits here and runs no
  prepass at all,
* only on a raw miss run :func:`~repro.prepass.reduce.apply_prepass` under
  a ``prepass`` span, falling back to the raw circuit (and ticking
  ``prepass.guard_failures``) if the differential guard trips, then key
  the cache on the **canonical** (prepassed) structure, so structural
  variants of a cached design still hit. Whatever that step returns —
  computed or a canonical hit — is also written under the raw key, so the
  next exact repeat skips the prepass,
* tick ``cache.*`` totals plus the ``prepass.*`` canonical/raw key-hit
  split, and mirror both into the caller's ``counters`` dict so batch run
  logs and ``repro cache stats`` can break hits out by key kind.

Entries written before the prepass existed, or by ``REPRO_PREPASS=0``
runs, sit under raw keys, so the raw probe answers them directly. Calls
with neither a cache nor a single-flight group (the CLI, replay) prepass
every time and hand the fresh extraction straight back: no payload is
encoded because nothing stores or shares it.

Keeping this in :mod:`repro.prepass` (which imports only circuits, aig,
core and obs) lets both :mod:`repro.jobs.executor` and
:mod:`repro.verify.equivalence` share it without an import cycle; the
:mod:`repro.jobs.cache` helpers are imported lazily for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..algebra import Polynomial
from ..circuits import Circuit
from ..core import AbstractionResult, extract_canonical
from ..gf import GF2m
from ..obs import metrics
from ..obs import redtrace
from ..obs.spans import span
from .reduce import PrepassError, PrepassResult, apply_prepass, resolve_prepass

__all__ = ["AbstractionProbe", "abstract_canonical"]


@dataclass
class AbstractionProbe:
    """One cache-aware canonical-polynomial lookup/computation."""

    hit: bool
    #: How the answer was obtained: ``"computed"`` (fresh extraction),
    #: ``"raw"`` (hit under the submitted netlist's raw-structure key, or
    #: under the only key there is when the prepass is off), ``"canonical"``
    #: (hit under the prepassed-structure key), or ``"shared"`` (another
    #: in-process caller's in-flight result).
    source: str
    #: Prepass accounting when the prepass ran and survived its guard.
    prepass: Optional[PrepassResult]
    #: The fresh extraction result (None on any kind of hit) — carries the
    #: parallel-pool stats payloads don't.
    result: Optional[AbstractionResult]
    #: The cache value. None on cache-less calls, where nothing is stored
    #: or shared and the fresh ``result`` answers instead.
    payload: Optional[Dict] = None

    def polynomial(self, field: GF2m) -> Polynomial:
        """The canonical polynomial: the fresh result's, else the payload's."""
        if self.result is not None:
            return self.result.polynomial
        from ..jobs.cache import rehydrate_polynomial

        return rehydrate_polynomial(self.payload, field)

    @property
    def stats(self) -> Dict:
        """The payload's ``stats`` block (case, seconds, peak terms, ...)."""
        if self.payload is not None:
            return self.payload["stats"]
        from ..jobs.cache import abstraction_stats

        return abstraction_stats(self.result)

    @property
    def output_word(self) -> str:
        if self.payload is not None:
            return self.payload["output_word"]
        return self.result.output_word


def abstract_canonical(
    circuit: Circuit,
    field: GF2m,
    *,
    output_word: Optional[str] = None,
    case2: str = "linearized",
    jobs: Optional[int] = None,
    cache=None,
    counters: Optional[Dict[str, int]] = None,
    inflight=None,
    prepass: Optional[bool] = None,
) -> AbstractionProbe:
    """Canonical polynomial of a flat circuit: raw probe, prepass, cache.

    ``cache`` is a :class:`~repro.jobs.cache.CanonicalPolyCache` (or None);
    ``inflight`` an optional single-flight group (``do(key, fn) ->
    (value, shared)``) for in-process dedup, keyed like the cache after
    the prepass; ``prepass`` the tri-state override (None defers to
    ``REPRO_PREPASS``). On a miss the RATO and reduction work runs inside
    :func:`~repro.core.abstraction.extract_canonical`, whose spans feed the
    executor's phase timings.
    """
    from ..jobs.cache import canonical_cache_key, polynomial_payload

    def key_of(netlist: Circuit) -> str:
        return canonical_cache_key(netlist, field, case2=case2, output_word=output_word)

    raw_key: Optional[str] = None
    key: Optional[str] = None
    payload: Optional[Dict] = None
    source = "computed"
    pres: Optional[PrepassResult] = None
    fresh: list = []
    if cache is not None:
        key = raw_key = key_of(circuit)
        payload = cache.get(raw_key)
        if payload is not None:
            source = "raw"

    if payload is None:
        target = circuit
        if resolve_prepass(prepass) and isinstance(circuit, Circuit):
            # (Hierarchical designs are abstracted block-wise, unprepassed.)
            with span("prepass", gates=circuit.num_gates()):
                try:
                    pres = apply_prepass(circuit)
                    target = pres.circuit
                except PrepassError:
                    # Guard tripped (already counted): verdicts must never
                    # depend on the prepass, so abstract the raw netlist.
                    pass

        def extract() -> AbstractionResult:
            result = extract_canonical(
                target, field, output_word=output_word, case2=case2, jobs=jobs
            )
            fresh.append(result)
            return result

        if cache is None and inflight is None:
            extract()
        else:
            key = raw_key if target is circuit and raw_key else key_of(target)

            def compute() -> Dict:
                return polynomial_payload(extract())

            def lookup() -> Tuple[Dict, str]:
                if cache is None:
                    return compute(), "computed"
                return cache.lookup_or_compute(key, compute)

            if inflight is None:
                payload, source = lookup()
            else:
                (payload, source), shared = inflight.do(key, lookup)
                if shared:
                    source = "shared"
            if source == "hit":
                source = "raw" if pres is None else "canonical"
            if cache is not None and key != raw_key:
                cache.put(raw_key, payload)

    hit = source != "computed"
    raw_hit = source == "raw" or (source == "shared" and pres is None)
    canonical_hit = hit and not raw_hit
    if counters is not None:
        counters["hits"] = counters.get("hits", 0) + int(hit)
        counters["misses"] = counters.get("misses", 0) + int(not hit)
        counters["hits_canonical"] = counters.get("hits_canonical", 0) + int(
            canonical_hit
        )
        counters["hits_raw"] = counters.get("hits_raw", 0) + int(raw_hit)
    metrics.counter_add(metrics.CACHE_HITS if hit else metrics.CACHE_MISSES, 1)
    if canonical_hit:
        metrics.counter_add(metrics.PREPASS_CANONICAL_KEY_HITS, 1)
    if raw_hit:
        metrics.counter_add(metrics.PREPASS_RAW_KEY_HITS, 1)
    rtw = redtrace.active_writer()
    if rtw is not None and key is not None:
        # Environment-dependent by nature (a warm cache answers differently
        # than a cold one), so the replay differ never sees these: the
        # `repro verify --record` path runs cache-less. They exist for the
        # daemon's flight recorder.
        rtw.emit("cache_probe", key=key[:16], hit=hit)
    return AbstractionProbe(
        hit=hit,
        source=source,
        prepass=pres,
        result=fresh[0] if fresh else None,
        payload=payload,
    )
