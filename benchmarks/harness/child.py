"""Child-process entry of the harness: ``gen``, ``setup`` or ``measure``.

``run.py`` starts each step in a fresh interpreter with a pinned
``PYTHONHASHSEED`` and ``PYTHONPATH`` pointing at the checkout's ``src``:

``gen``
    Build the workload's inputs from the seed (untimed) into the work
    directory: ``plan.pkl``, and ``setup.json`` naming the program modules
    the ops call and the fields they touch.
``setup``
    Import those modules and warm the field tables for the workload's k
    values (and, for paper_algebra, start the worker plane). Prints the
    seconds that took; ``run.py`` runs several of these and takes the
    median, because import costs are only paid once per process.
``measure``
    Set up as above, then run one pass of the op list as a single-client
    closed loop, checking every answer. Every pass gets a process of its
    own, so each starts from the state a CLI invocation sees: no memo,
    cost estimate or warm table an earlier pass left behind. One JSON line
    per op goes to the events file as it happens, so a pass killed on
    timeout still leaves its record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import pickle
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Tuple


def _setup(workdir: Path) -> float:
    """Import the program and warm what the workload touches; return seconds."""
    setup = json.loads((workdir / "setup.json").read_text())
    started = time.perf_counter()
    for module in setup["modules"]:
        importlib.import_module(module)
    from repro.gf import GF2m, logtables

    for k, modulus in setup["fields"]:
        GF2m(k, modulus)
        logtables.warm(k, modulus)
    if setup["plane"]:
        from repro.jobs.plane import get_plane

        get_plane().dispatch_overhead()
    return time.perf_counter() - started


def run_op(op, tracer=None) -> Tuple[float, Optional[str]]:
    """Time one op and check its answer: ``(seconds, error or None)``.

    Only the call into the program is timed. An exception from the program
    or from the oracle is the op's error, never a harness crash.
    """
    started = time.perf_counter()
    try:
        answer = tracer.run(op.run) if tracer is not None else op.run()
    except Exception as exc:
        return time.perf_counter() - started, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    try:
        return seconds, op.check(answer)
    except Exception as exc:
        return seconds, f"oracle raised {type(exc).__name__}: {exc}"


def gen(workload: str, seed: int, workdir: Path) -> None:
    started = time.perf_counter()
    import workloads

    plan = workloads.GENERATORS[workload](seed)
    with open(workdir / "plan.pkl", "wb") as handle:
        pickle.dump(plan, handle, protocol=pickle.HIGHEST_PROTOCOL)
    (workdir / "setup.json").write_text(
        json.dumps(
            {
                "modules": workloads.entry_modules(plan),
                "fields": plan["fields"],
                "plane": bool(plan.get("plane")),
            }
        )
    )
    print(
        json.dumps(
            {
                "gen_s": time.perf_counter() - started,
                "ops_per_pass": len(plan["passes"][0]),
                "distinct_passes": len(plan["passes"]),
            }
        )
    )


def measure(workdir: Path, index: int, trace: bool, events: Path) -> None:
    setup_s = _setup(workdir)
    import workloads
    from layers import LayerTracer

    # Unpickling the k=283 designs with the collector running costs 1.7 s
    # of repeated scans; paused, 0.3 s.
    gc.disable()
    with open(workdir / "plan.pkl", "rb") as handle:
        plan = pickle.load(handle)
    gc.enable()
    ops = workloads.build_pass(plan, index, Path(tempfile.mkdtemp(prefix="pass-", dir=workdir)))
    # Hold only this pass's inputs, as a process serving one request would.
    del plan
    gc.collect()
    with open(events, "w", encoding="utf-8") as log:

        def emit(record) -> None:
            log.write(json.dumps(record) + "\n")
            log.flush()

        emit({"event": "setup", "setup_s": setup_s})
        wall = 0.0
        with LayerTracer() if trace else contextlib.nullcontext() as tracer:
            for op in ops:
                emit({"event": "op_start", "label": op.label})
                took, error = run_op(op, tracer)
                if tracer is not None:
                    tracer.account()
                wall += took
                emit({"event": "op", "label": op.label, "seconds": took, "error": error})
        end = {
            "event": "end",
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            end["layers"] = tracer.metrics()
        emit(end)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("gen", "setup", "measure"))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pass", dest="index", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--events", type=Path)
    args = parser.parse_args(argv)
    if args.step == "gen":
        gen(args.workload, args.seed, args.workdir)
        return 0
    if args.step == "setup":
        print(json.dumps({"setup_s": _setup(args.workdir)}))
    else:
        measure(args.workdir, args.index, bool(args.trace), args.events)
    from repro.jobs.plane import reset_plane

    reset_plane()  # stop the plane's workers before the interpreter exits
    return 0


if __name__ == "__main__":
    sys.exit(main())
