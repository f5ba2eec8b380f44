"""Prepass economics: canonicalization cost vs. abstraction savings.

The structural prepass (:mod:`repro.prepass`) spends time up front —
canonicalize, fraig SAT-sweep, differential guard — to buy cache hits the
raw-structure key cannot see. This benchmark prices both sides of that
trade on the PR 6 workload (Mastrovito multipliers hidden behind the six
``reveng.obfuscate`` passes, singly and stacked):

1. **prepass cost** — median wall time of :func:`apply_prepass` on the
   clean multiplier, with the gate/merge/SAT statistics it produced;
2. **abstraction savings** — what an obfuscated variant costs without the
   prepass (a raw-key miss, so a full abstraction of the *inflated*
   netlist: ``cold_variant_seconds``) vs. the warm path its first
   submission takes now (raw-key miss, prepass, canonical-key hit:
   ``warm_variant_seconds``, each repetition on a fresh cache that holds
   only the clean design). The ``saved_ratio`` is the fraction of that
   cold re-abstraction each collapsed variant avoids; the clean design's
   own cold abstraction is reported alongside for scale. Once seen, the
   variant is aliased under its raw key, so resubmitting it verbatim is a
   raw-key hit with no prepass at all: ``exact_repeat_seconds``;
3. **hit rates before/after** — for all six single-pass variants plus the
   stacked one: how many share the original's *raw* structural key
   (the pre-PR scheme; ``rename`` alone defeats it) vs. how many share
   its *canonical* key. The canonical rate must be 7/7 — that is the
   tentpole acceptance property and the benchmark fails otherwise.

Standalone script so CI can gate on it cheaply::

    PYTHONPATH=src python benchmarks/bench_prepass.py --quick

``--quick`` restricts the sweep to k=16 (the CI smoke contract); the
default sweep is k in {16, 32, 64}. Output JSON goes to ``--out``,
``$REPRO_BENCH_OUT``, or ``./BENCH_prepass.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from datetime import datetime
from pathlib import Path

from repro.gf import GF2m
from repro.jobs.cache import CanonicalPolyCache, canonical_cache_key
from repro.prepass import abstract_canonical, apply_prepass, canonicalize
from repro.reveng import obfuscation_suite
from repro.synth import mastrovito_multiplier

SWEEP_SIZES = (16, 32, 64)
QUICK_SIZES = (16,)
SUITE_SEED = 2014


def _median(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def bench_size(k: int, reps: int) -> dict:
    field = GF2m(k)
    circuit = mastrovito_multiplier(field)
    suite = obfuscation_suite(circuit, seed=SUITE_SEED)

    # 1. prepass cost on the clean design (and its reduction statistics).
    prepass_seconds = _median(lambda: apply_prepass(circuit), reps)
    prepass_stats = apply_prepass(circuit).stats()

    # 2. what the stacked variant costs without the prepass (raw-key miss,
    #    full abstraction of the inflated netlist) vs. the warm path.
    stacked = next(v for v in suite if len(v.passes) > 1)
    with tempfile.TemporaryDirectory() as tmp:
        throwaway = CanonicalPolyCache(Path(tmp) / "cold")
        gc.collect()
        t0 = time.perf_counter()
        baseline = abstract_canonical(
            stacked.circuit, field, cache=throwaway, prepass=False
        )
        cold_variant_seconds = time.perf_counter() - t0
        assert not baseline.hit

        caches = [CanonicalPolyCache(Path(tmp) / f"cache{rep}") for rep in range(reps)]
        cold_samples = []
        for cache in caches:
            gc.collect()
            t0 = time.perf_counter()
            cold = abstract_canonical(circuit, field, cache=cache, prepass=True)
            cold_samples.append(time.perf_counter() - t0)
            assert not cold.hit
        cold_seconds = statistics.median(cold_samples)

        def probe_variant(cache, source):
            probe = abstract_canonical(
                stacked.circuit, field, cache=cache, prepass=True
            )
            assert probe.hit and probe.source == source

        # The variant's first sight, each time on a fresh cache that holds
        # only the clean design; that sight aliases the variant's raw key,
        # so resubmitting it verbatim is a raw-key hit.
        fresh = iter(caches)
        warm_seconds = _median(lambda: probe_variant(next(fresh), "canonical"), reps)
        repeat_seconds = _median(lambda: probe_variant(caches[0], "raw"), reps)

    # 3. key convergence, before (raw structural key) and after (canonical).
    raw_reference = canonical_cache_key(circuit, field)
    canon_reference = canonical_cache_key(canonicalize(circuit), field)
    raw_hits = {}
    canonical_hits = {}
    for variant in suite:
        raw_hits[variant.name] = (
            canonical_cache_key(variant.circuit, field) == raw_reference
        )
        canonical_hits[variant.name] = (
            canonical_cache_key(canonicalize(variant.circuit), field)
            == canon_reference
        )

    row = {
        "gates": circuit.num_gates(),
        "stacked_gates": stacked.circuit.num_gates(),
        "variants": len(suite),
        "prepass_seconds": round(prepass_seconds, 6),
        "prepass_stats": prepass_stats,
        "cold_abstraction_seconds": round(cold_seconds, 6),
        "cold_variant_seconds": round(cold_variant_seconds, 6),
        "warm_variant_seconds": round(warm_seconds, 6),
        "saved_ratio": round(1.0 - warm_seconds / cold_variant_seconds, 4),
        "exact_repeat_seconds": round(repeat_seconds, 6),
        "raw_key_hits": sum(raw_hits.values()),
        "canonical_key_hits": sum(canonical_hits.values()),
        "raw_key_hit_by_pass": raw_hits,
        "canonical_key_hit_by_pass": canonical_hits,
    }
    print(
        f"k={k:<3} ({row['gates']} -> {row['stacked_gates']} gates stacked)  "
        f"prepass {prepass_seconds * 1e3:7.1f} ms  "
        f"variant cold {cold_variant_seconds * 1e3:8.1f} ms  "
        f"warm {warm_seconds * 1e3:7.1f} ms "
        f"(saves {row['saved_ratio'] * 100:.1f}%)  "
        f"repeat {repeat_seconds * 1e3:6.1f} ms  "
        f"key hits raw {row['raw_key_hits']}/{len(suite)} -> "
        f"canonical {row['canonical_key_hits']}/{len(suite)}"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="k=16 only (CI smoke)")
    parser.add_argument("--reps", type=int, default=3,
                        help="timing repetitions per configuration (default 3)")
    parser.add_argument("--out", default=None,
                        help="output JSON (default $REPRO_BENCH_OUT or "
                        "./BENCH_prepass.json)")
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else SWEEP_SIZES
    results = {}
    failures = []
    for k in sizes:
        row = bench_size(k, args.reps)
        results[f"k{k}"] = row
        if row["canonical_key_hits"] != row["variants"]:
            misses = [
                name
                for name, hit in row["canonical_key_hit_by_pass"].items()
                if not hit
            ]
            failures.append(
                f"k={k}: obfuscation variants escaped the canonical key: "
                f"{', '.join(misses)}"
            )
        if row["warm_variant_seconds"] >= row["cold_variant_seconds"]:
            failures.append(
                f"k={k}: warm variant path ({row['warm_variant_seconds']}s) "
                f"is not cheaper than the raw-key miss it replaces "
                f"({row['cold_variant_seconds']}s)"
            )
        if row["exact_repeat_seconds"] >= row["warm_variant_seconds"]:
            failures.append(
                f"k={k}: an exact repeat ({row['exact_repeat_seconds']}s) is "
                f"not cheaper than the variant's first sight "
                f"({row['warm_variant_seconds']}s)"
            )

    doc = {
        "meta": {
            "quick": args.quick,
            "suite_seed": SUITE_SEED,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "timestamp": datetime.now().isoformat(timespec="seconds"),
        },
        "current": results,
    }
    out = args.out or os.environ.get("REPRO_BENCH_OUT") or "BENCH_prepass.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
