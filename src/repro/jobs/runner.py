"""Parallel batch engine: process-per-job pool with deadlines and retries.

The verification workload is embarrassingly parallel across instances
(cf. Yu & Ciesielski's parallel GF-multiplier verification), so the engine
simply keeps up to ``workers`` single-job OS processes alive at once. One
process per job buys the three failure-isolation properties the engine
guarantees:

- **wall-clock deadlines** — a job past its timeout is SIGTERM'd (then
  SIGKILL'd) and reported ``timeout`` while its siblings keep running;
- **crash containment** — a worker that dies without reporting (hard
  ``os._exit``, segfault, OOM-kill) marks only that job ``crashed`` and is
  retried up to ``retries`` times before the job is declared failed;
- **memory hygiene** — per-job peak RSS is measured in the worker itself,
  and a runaway job cannot bloat the parent or its siblings.

Results stream to a JSONL run log as they land: a ``start`` record, one
``job`` record per attempt outcome, and a final ``summary`` with verdict /
status counts, aggregate cache hits, and wall time.

Each worker runs its job under its own trace collector and ships the span
snapshot home inside the result record (``telemetry``). The parent pops it
before logging — run logs stay compact — and, when a ``trace_dir`` is
given, writes one Chrome-trace file per job (``<trace_dir>/<id>.trace.json``,
noted in the record as ``trace_file``). If the parent itself has tracing
enabled, worker telemetry also merges into its collector.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import re
import signal
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

from .. import obs
from ..gf import GF2m, logtables
from .cache import CanonicalPolyCache
from .executor import execute_job
from .manifest import BatchManifest

__all__ = ["BatchReport", "run_batch"]

logger = logging.getLogger("repro.jobs")

_POLL_INTERVAL = 0.02
_KILL_GRACE = 2.0


@dataclass
class BatchReport:
    """Outcome of one batch run."""

    results: List[Dict] = dataclass_field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    log_path: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: Hits broken out by which key kind answered: the prepassed
    #: canonical-structure key vs the raw-structure key of the netlist as
    #: submitted (exact repeats, and every hit of a ``prepass: false`` job).
    cache_hits_canonical: int = 0
    cache_hits_raw: int = 0

    @property
    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result["status"]] = counts.get(result["status"], 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return all(result["status"] == "ok" for result in self.results)


def _worker_main(job: Dict, conn, cache_dir: Optional[str], attempt: int, seed) -> None:
    """Entry point of a single-job worker process."""
    # Restore default signal dispositions: a parent embedding run_batch may
    # have custom SIGTERM/SIGINT handlers (the service daemon does), and an
    # inherited handler would swallow the deadline SIGTERM this runner sends
    # overdue workers, forcing every kill through the SIGKILL grace period.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    obs.redtrace.reset_after_fork()  # never write into the parent's trace fd
    try:
        result = execute_job(job, cache_dir=cache_dir, attempt=attempt, seed=seed)
    except BaseException as exc:  # noqa: BLE001 — any failure becomes a record
        result = {
            "id": job["id"],
            "type": job["type"],
            "status": "failed",
            "attempt": attempt,
            "error": f"{type(exc).__name__}: {exc}",
        }
    try:
        conn.send(result)
        conn.close()
    except (BrokenPipeError, OSError):  # parent already gave up on us
        pass


class _RunLog:
    """Append-only JSONL writer (no-op when no path is given)."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self._handle = None
        if path:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._handle = open(path, "w", encoding="utf-8")

    def write(self, record: Dict) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass
class _Running:
    job: Dict
    process: multiprocessing.Process
    conn: "multiprocessing.connection.Connection"
    deadline: Optional[float]
    attempt: int
    started: float
    job_seed: Optional[int]
    max_retries: int


def _trace_file_name(job_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", job_id) + ".trace.json"


def _prewarm_gf_tables(manifest: BatchManifest) -> None:
    """Build GF tables for every manifest field in the parent, pre-fork.

    Job workers are forked, so tables built here are inherited copy-on-write
    by every worker: each distinct ``(k, modulus)`` is constructed exactly
    once per batch instead of once per job process. Malformed field params
    are left for the job itself to report as a proper failure record.
    """
    seen = set()
    for job in manifest.jobs:
        params = job.params
        k = params.get("k")
        if k is None:
            continue
        modulus = params.get("modulus")
        if isinstance(modulus, str):
            try:
                modulus = int(modulus, 0)
            except ValueError:
                continue
        try:
            field = GF2m(int(k), modulus=modulus)
        except (ValueError, TypeError):
            continue
        key = (field.k, field.modulus)
        if key in seen:
            continue
        seen.add(key)
        logtables.warm(field.k, field.modulus)


def _order_pending(pending: List[tuple], cost_model) -> "tuple[List[tuple], Dict]":
    """Shortest-predicted-first schedule for the pending stack.

    Returns ``(reordered, predicted_by_id)`` where ``reordered`` is laid
    out for tail-``pop()`` dispatch: the job with the *smallest* predicted
    runtime sits last. Predictions use manifest-time features only (op
    type and ``k`` — gate counts are unknown before parsing), so the
    model answers from its (op, k) buckets / op means. Jobs the model
    cannot price keep manifest order among themselves and run after every
    priced job.
    """
    predicted_by_id: Dict[str, float] = {}

    def price(entry: tuple) -> float:
        job = entry[0]
        params = job.get("params", {})
        value = cost_model.predict(job["type"], k=params.get("k"))
        if value is None:
            return float("inf")
        predicted_by_id[job["id"]] = round(value, 6)
        return value

    priced = [(price(entry), index, entry) for index, entry in enumerate(pending)]
    priced.sort(key=lambda item: (item[0], item[1]), reverse=True)
    return [entry for _, _, entry in priced], predicted_by_id


def run_batch(
    manifest: BatchManifest,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    default_timeout: Optional[float] = 300.0,
    log_path: Optional[str] = None,
    seed: Optional[int] = None,
    retries: Optional[int] = None,
    trace_dir: Optional[str] = None,
    cost_model=None,
) -> BatchReport:
    """Run every job of ``manifest`` on a pool of ``workers`` processes.

    ``default_timeout``/``retries`` apply to jobs that do not override them
    in the manifest; ``seed`` derives a distinct deterministic per-job seed
    (``seed + job index``) for the randomized counterexample search.
    ``trace_dir`` enables per-job Chrome traces. ``cost_model`` (a fitted
    :class:`repro.obs.costmodel.CostModel`) switches dispatch from manifest
    order to shortest-predicted-first and annotates each job record with
    ``predicted_seconds`` so ``repro report`` can score the model.
    """
    workers = max(1, int(workers))
    ctx = multiprocessing.get_context("fork")
    _prewarm_gf_tables(manifest)
    log = _RunLog(log_path)
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
    started = time.perf_counter()
    log.write(
        {
            "event": "start",
            "manifest": manifest.path,
            "jobs": len(manifest.jobs),
            "workers": workers,
            "cache_dir": cache_dir,
            "timeout": default_timeout,
            "seed": seed,
            "order": (
                "shortest-predicted-first" if cost_model is not None
                else "manifest"
            ),
        }
    )

    pending: List[tuple] = []  # (job dict, attempt, job seed, max retries)
    for index, job in enumerate(manifest.jobs):
        job_seed = seed + index if seed is not None else None
        job_retries = job.retries if retries is None else retries
        pending.append((job.to_dict(), 1, job_seed, job_retries))
    predicted_by_id: Dict[str, float] = {}
    if cost_model is not None:
        pending, predicted_by_id = _order_pending(pending, cost_model)
    else:
        pending.reverse()  # pop() from the tail preserves manifest order

    running: List[_Running] = []
    results: List[Dict] = []

    def finalize(record: Dict) -> None:
        # The raw span snapshot is bulky; keep it out of the run log and the
        # in-memory results, exporting/merging it here instead.
        telemetry = record.pop("telemetry", None)
        if record.get("id") in predicted_by_id:
            record["predicted_seconds"] = predicted_by_id[record["id"]]
        if telemetry:
            if trace_dir:
                path = os.path.join(trace_dir, _trace_file_name(record["id"]))
                obs.write_chrome_trace(telemetry, path)
                record["trace_file"] = path
            parent = obs.active_collector()
            if parent is not None:
                parent.merge(telemetry)
        if record.get("status") != "ok":
            logger.warning(
                "job %s finished %s after %d attempt(s): %s",
                record["id"],
                record["status"],
                record.get("attempt", 1),
                record.get("error", ""),
            )
        else:
            logger.debug(
                "job %s ok in %.3fs", record["id"], record.get("seconds", 0.0)
            )
        results.append(record)
        log.write({"event": "job", **record})

    def spawn(entry: tuple) -> None:
        job, attempt, job_seed, max_retries = entry
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_main,
            args=(job, send, cache_dir, attempt, job_seed),
            daemon=True,
        )
        process.start()
        send.close()  # parent keeps only the read end
        timeout = job.get("timeout")
        if timeout is None:
            timeout = default_timeout
        deadline = time.monotonic() + timeout if timeout else None
        running.append(
            _Running(
                job,
                process,
                recv,
                deadline,
                attempt,
                time.monotonic(),
                job_seed,
                max_retries,
            )
        )

    def reap(entry: _Running) -> Optional[Dict]:
        """Result record if the worker reported one, else None."""
        try:
            if entry.conn.poll():
                return entry.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    try:
        while pending or running:
            while pending and len(running) < workers:
                spawn(pending.pop())

            time.sleep(_POLL_INTERVAL)
            still_running: List[_Running] = []
            for entry in running:
                result = reap(entry)
                if result is not None:
                    entry.process.join()
                    entry.conn.close()
                    finalize(result)
                    continue
                if not entry.process.is_alive():
                    # The worker may have exited right after sending; pipe
                    # buffers survive process death, so drain once more.
                    result = reap(entry)
                    if result is not None:
                        entry.process.join()
                        entry.conn.close()
                        finalize(result)
                        continue
                    # Died without a result: hard crash (os._exit, signal,
                    # OOM-kill). Retry if the job has budget left.
                    exitcode = entry.process.exitcode
                    entry.process.join()
                    entry.conn.close()
                    if entry.attempt <= entry.max_retries:
                        logger.warning(
                            "job %s died with exit code %s on attempt %d; retrying",
                            entry.job["id"],
                            exitcode,
                            entry.attempt,
                        )
                        log.write(
                            {
                                "event": "retry",
                                "id": entry.job["id"],
                                "attempt": entry.attempt,
                                "exitcode": exitcode,
                            }
                        )
                        pending.append(
                            (
                                entry.job,
                                entry.attempt + 1,
                                entry.job_seed,
                                entry.max_retries,
                            )
                        )
                    else:
                        finalize(
                            {
                                "id": entry.job["id"],
                                "type": entry.job["type"],
                                "status": "crashed",
                                "attempt": entry.attempt,
                                "seconds": round(
                                    time.monotonic() - entry.started, 3
                                ),
                                "error": f"worker died with exit code "
                                f"{exitcode} (no result); "
                                f"{entry.attempt} attempt(s) made",
                            }
                        )
                    continue
                if entry.deadline is not None and time.monotonic() > entry.deadline:
                    logger.warning(
                        "job %s exceeded its %.1fs deadline; killing worker",
                        entry.job["id"],
                        time.monotonic() - entry.started,
                    )
                    _kill(entry.process)
                    entry.conn.close()
                    finalize(
                        {
                            "id": entry.job["id"],
                            "type": entry.job["type"],
                            "status": "timeout",
                            "attempt": entry.attempt,
                            "seconds": round(time.monotonic() - entry.started, 3),
                            "error": "wall-clock deadline exceeded",
                        }
                    )
                    continue
                still_running.append(entry)
            running[:] = still_running
    finally:
        for entry in running:
            _kill(entry.process)

    report = _summarize(results, manifest, workers, started, cache_dir, log)
    log.close()
    return report


def _kill(process: multiprocessing.Process) -> None:
    if not process.is_alive():
        process.join()
        return
    process.terminate()
    process.join(_KILL_GRACE)
    if process.is_alive():
        process.kill()
        process.join()


def _summarize(
    results: List[Dict],
    manifest: BatchManifest,
    workers: int,
    started: float,
    cache_dir: Optional[str],
    log: _RunLog,
) -> BatchReport:
    hits = sum(r.get("cache", {}).get("hits", 0) for r in results)
    misses = sum(r.get("cache", {}).get("misses", 0) for r in results)
    hits_canonical = sum(
        r.get("cache", {}).get("hits_canonical", 0) for r in results
    )
    hits_raw = sum(r.get("cache", {}).get("hits_raw", 0) for r in results)
    if cache_dir and (hits or misses):
        CanonicalPolyCache(cache_dir).record(
            hits=hits,
            misses=misses,
            hits_canonical=hits_canonical,
            hits_raw=hits_raw,
        )
    report = BatchReport(
        results=results,
        wall_seconds=time.perf_counter() - started,
        workers=workers,
        log_path=log.path,
        cache_hits=hits,
        cache_misses=misses,
        cache_hits_canonical=hits_canonical,
        cache_hits_raw=hits_raw,
    )
    log.write(
        {
            "event": "summary",
            "jobs": len(manifest.jobs),
            "workers": workers,
            "wall_seconds": round(report.wall_seconds, 3),
            "status_counts": report.counts,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hits_canonical": hits_canonical,
            "cache_hits_raw": hits_raw,
        }
    )
    return report
