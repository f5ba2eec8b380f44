"""Repeatability check: two alternating sets of seeded runs per workload.

Runs ``run.py`` once per (set, seed, workload), alternating the sets, and
reports for every end-to-end metric the quartile spread of each set (the
distance between first and third quartile over the median) and how far
the second set's median lies from the first's::

    python3 benchmarks/harness/repeat.py --out-dir benchmarks/harness/results

Each set is ten runs of every workload with the benchmark's round length.
Set A uses seeds 1..10 and set B seeds 1001..1010, so the check also
covers seeds never used while writing the harness. Each set's results go
to ``<out-dir>/repeat-<set>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from run import SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
SETS = {"a": 1, "b": 1001}
RUNS = 10


def quartile_spread(values: List[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_once(workload: str, seed: int) -> Dict:
    """One untraced run: its result line plus the pass walls and set-up samples."""
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as scratch:
        details = Path(scratch) / "results.json"
        started = time.monotonic()
        out = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(SECONDS),
                "--trace", "0",
                "--out", str(details),
            ],
            cwd=str(HERE.parents[1]),
            capture_output=True,
            text=True,
            check=True,
        )
        record = json.loads(details.read_text())["workloads"][workload]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result.update(
        seed=seed,
        run_s=time.monotonic() - started,
        gen_s=record["gen"]["gen_s"],
        setup_samples=record["setup_samples"] + record["untraced"]["setup_s"],
        passes=record["untraced"]["passes"],
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    results: Dict[str, Dict[str, List[Dict]]] = {s: {w: [] for w in WORKLOADS} for s in SETS}
    for index in range(RUNS):
        for name, first_seed in SETS.items():
            for workload in WORKLOADS:
                seed = first_seed + index
                result = run_once(workload, seed)
                results[name][workload].append(result)
                print(f"set {name} {workload} seed {seed}: correct={result['correct']}",
                      file=sys.stderr)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name in SETS:
        (args.out_dir / f"repeat-{name}.json").write_text(
            json.dumps({"seconds": SECONDS, "runs": results[name]}, indent=1) + "\n"
        )

    print(f"{'workload':18} {'metric':14} {'median A':>10} {'spread A':>9} "
          f"{'spread B':>9} {'B vs A':>8}")
    for workload in WORKLOADS:
        for metric in results["a"][workload][0]["metrics"]:
            a = [r["metrics"][metric]["value"] for r in results["a"][workload]]
            b = [r["metrics"][metric]["value"] for r in results["b"][workload]]
            median_a = statistics.median(a)
            print(f"{workload:18} {metric:14} {median_a:10.4g} {quartile_spread(a):9.3f} "
                  f"{quartile_spread(b):9.3f} {statistics.median(b) / median_a - 1:+8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
