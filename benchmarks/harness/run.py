"""Layered benchmark harness for the word-level abstraction pipeline.

One command runs a workload, checks every answer and prints each metric by
name with its unit; the last line of standard output is one JSON object::

    python3 benchmarks/harness/run.py --workload flat_verify --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
reports the per-layer metrics of a separate traced round, interleaved pass
by pass with an untraced round of the same inputs for the tracing
overhead. Without
``--workload`` every workload runs in turn. ``--out FILE`` chooses where
the results JSON goes (meta block, metrics, every op).

Each step runs in a fresh interpreter with ``PYTHONHASHSEED`` pinned and
``PYTHONPATH`` set to the checkout's ``src``: the generator (untimed),
several set-up probes, and every pass of the measured closed loop. See
README.md for the workloads, metric definitions and measured numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = ("flat_verify", "paper_algebra", "bug_hunt", "regression_stream")

#: Length of one measured round, the benchmark's ``run_seconds``.
SECONDS = 20

#: Every child process runs with this hash seed: set iteration order, and
#: so some tie-breaks in the pipeline, then repeat from run to run.
HASH_SEED = "0"

#: Fresh-interpreter set-up probes per run, besides the pass processes.
SETUP_PROBES = 3

#: Wall-clock cap for one workload, every child included.
TIME_CAP_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class HarnessError(RuntimeError):
    """A harness step failed; no result is printed."""


def child_env(workdir: Path) -> Dict[str, str]:
    """Environment of every child: program defaults, pinned hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC), TMPDIR=str(workdir))
    return env


def run_child(args: List[str], workdir: Path, timeout: float) -> "tuple[int, str, bool]":
    """Run ``child.py`` with ``args``; returns (exit code, stdout, timed out).

    The child leads its own process group, so a timeout kills it together
    with any worker processes it started; either way it is waited for.
    """
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args, "--workdir", str(workdir)],
        cwd=str(ROOT),
        env=child_env(workdir),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=max(timeout, 1.0))
        return process.returncode, out, False
    except subprocess.TimeoutExpired:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group ended between the timeout and the kill
        out, _ = process.communicate()
        return process.returncode, out, True


def _child_json(args: List[str], workdir: Path, timeout: float) -> Dict:
    code, out, timed_out = run_child(args, workdir, timeout)
    if code != 0 or timed_out:
        raise HarnessError(f"child {args[0]} failed (exit {code}, timed out {timed_out})")
    return json.loads(out.strip().splitlines()[-1])


def read_events(path: Path, interrupted: Optional[str]) -> Dict:
    """Fold one measured pass's events into its ops, set-up time and summary.

    ``interrupted`` names why the child stopped early (timeout, crash); the
    op it had started then counts as failed.
    """
    result: Dict = {"ops": [], "setup_s": None, "end": None}
    started_op = None
    if path.exists():
        for line in path.read_text().splitlines():
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                break  # the line a killed child was writing
            kind = event.pop("event")
            if kind == "setup":
                result["setup_s"] = event["setup_s"]
            elif kind == "op_start":
                started_op = event["label"]
            elif kind == "op":
                result["ops"].append(event)
                started_op = None
            elif kind == "end":
                result["end"] = event
    if result["end"] is None:
        label = started_op or "<no op started>"
        result["ops"].append(
            {"label": label, "seconds": None, "error": interrupted or "child exited early"}
        )
    return result


def p90(values: List[float]) -> float:
    """90th percentile, interpolating between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarize(round_: Dict) -> Dict:
    """End-to-end metrics, counts and errors of one measured round."""
    ops = round_["ops"]
    latencies = [op["seconds"] for op in ops if op["seconds"] is not None]
    failed = [op for op in ops if op["error"] is not None]
    passes = round_["passes"]
    metrics = {}
    if latencies:  # none when the child died before its first op finished
        metrics["wall_s"] = statistics.median(passes) if passes else sum(latencies)
        metrics["latency_s.p50"] = statistics.median(latencies)
        metrics["latency_s.p90"] = p90(latencies)
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": len(failed),
        "error_rate": len(failed) / len(ops),
        "errors": [f"{op['label']}: {op['error']}" for op in failed],
    }


def run_pass(workdir: Path, index: int, trace: bool, round_: Dict, timeout: float) -> bool:
    """Run pass ``index`` in a fresh process and add it to ``round_``.

    Returns False when the pass did not finish.
    """
    events = workdir / f"events-{int(trace)}-{index}.jsonl"
    code, _, timed_out = run_child(
        ["measure", "--pass", str(index), "--trace", str(int(trace)), "--events", str(events)],
        workdir,
        timeout,
    )
    why = "timed out" if timed_out else (f"child exit {code}" if code else None)
    result = read_events(events, why)
    round_["ops"] += result["ops"]
    if result["setup_s"] is not None:
        round_["setup_s"].append(result["setup_s"])
    end = result["end"]
    if end is None:
        return False
    round_["passes"].append(end["wall_s"])
    round_["peak_rss_mb"].append(end["peak_rss_mb"])
    if trace:
        round_["layers"].append(end["layers"])
    return True


def measure_rounds(workdir: Path, seconds: float, modes: tuple, timeout: float) -> List[Dict]:
    """One round per mode in ``modes`` (False untraced, True traced).

    The rounds are interleaved pass by pass, so a traced pass runs under
    the same machine load as the untraced pass of the same inputs. Each
    round gets ``seconds``: another pass starts only while the elapsed time
    plus one more pass of every round fits (at least one pass runs). A pass
    that does not finish ends the rounds.
    """
    rounds = [
        {"passes": [], "ops": [], "setup_s": [], "peak_rss_mb": [], "layers": []}
        for _ in modes
    ]
    started = time.monotonic()
    index = 0
    while True:
        for trace, round_ in zip(modes, rounds):
            if not run_pass(workdir, index, trace, round_, started + timeout - time.monotonic()):
                return rounds
        index += 1
        elapsed = time.monotonic() - started
        if elapsed + elapsed / index > seconds * len(modes):
            return rounds


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Generate, set up, measure (and trace) one workload; returns its record."""
    deadline = time.monotonic() + TIME_CAP_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        record: Dict = {"workload": workload}
        record["gen"] = _child_json(
            ["gen", "--workload", workload, "--seed", str(seed)],
            workdir,
            deadline - time.monotonic(),
        )
        if not trace:
            record["setup_samples"] = [
                _child_json(["setup"], workdir, deadline - time.monotonic())["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
        modes = (False, True) if trace else (False,)
        rounds = measure_rounds(workdir, seconds, modes, deadline - time.monotonic())
        untraced = record["untraced"] = rounds[0]
        record.update(summarize(untraced))
        if untraced["peak_rss_mb"]:
            record["metrics"]["peak_rss_mb"] = max(untraced["peak_rss_mb"])
        if trace:
            traced = record["traced"] = rounds[1]
            traced_summary = summarize(traced)
            record["attempted"] += traced_summary["attempted"]
            record["failed"] += traced_summary["failed"]
            record["errors"] += traced_summary["errors"]
            paired = min(len(traced["passes"]), len(untraced["passes"]))
            if paired:
                record["layers"] = {
                    metric: statistics.median(p[metric] for p in traced["layers"])
                    for metric in traced["layers"][0]
                }
                record["layers"]["trace_overhead"] = (
                    sum(traced["passes"][:paired]) / sum(untraced["passes"][:paired]) - 1.0
                )
        else:
            samples = record["setup_samples"] + untraced["setup_s"]
            record["metrics"]["setup_s"] = statistics.median(samples)
        record["error_rate"] = record["failed"] / record["attempted"]
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def reported_metrics(record: Dict, trace: bool) -> Dict[str, Dict]:
    """The metrics a run reports: end-to-end untraced, per-layer traced."""
    if trace:
        values = record.get("layers", {})
        return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    return {
        name: {"value": record["metrics"][name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
        if name in record["metrics"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help=f"time budget of one measured round (default {SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--out", type=Path, help="results JSON (default: .work/)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    meta = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "PYTHONHASHSEED": HASH_SEED,
        "seconds": args.seconds,
        "trace": trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    records = {}
    try:
        for workload in workloads:
            records[workload] = run_workload(workload, args.seed, args.seconds, trace)
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    out = args.out or WORK / f"results-{args.workload or 'all'}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"meta": meta, "workloads": records}, indent=1) + "\n")

    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    metrics = {}
    for workload, record in records.items():
        for error in record["errors"]:
            print(f"{workload}  FAILED  {error}")
        print(f"{workload}  error_rate  {record['error_rate']:.4f}  "
              f"({record['failed']}/{record['attempted']} ops)")
        for name, metric in reported_metrics(record, trace).items():
            print(f"{workload}  {name}  {metric['value']:.6g} {metric['unit']}")
            key = name if args.workload else f"{workload}.{name}"
            metrics[key] = metric
    print(f"results written to {out}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
