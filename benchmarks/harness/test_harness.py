"""Tests of the harness itself: statistics, span folding, inputs, oracles.

Run with ``python -m pytest benchmarks/harness``. Tests that run ops patch
the field sizes down to k<=8; the input-identity test runs the real
generator step of the two cheapest workloads. The file takes under ten
seconds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small_fields(monkeypatch):
    monkeypatch.setattr(workloads, "BUG_HUNT_CASE2", {6: 1, 8: 1})
    monkeypatch.setattr(workloads, "STREAM_K", (8,))
    monkeypatch.setattr(workloads, "BUG_HUNT_PASSES", 2)


# -- statistics -----------------------------------------------------------------


def _ops(latencies):
    return [{"label": "op", "seconds": s, "error": None} for s in latencies]


def test_latency_percentiles_count_every_op_and_wall_is_the_median_pass():
    summary = run.summarize({"passes": [3.0, 1.0, 2.0], "ops": _ops(range(1, 11))})
    assert summary["metrics"] == {
        "wall_s": 2.0,
        "latency_s.p50": 5.5,
        "latency_s.p90": pytest.approx(9.1),
    }
    single = run.summarize({"passes": [], "ops": _ops([0.25])})["metrics"]
    assert single == {"wall_s": 0.25, "latency_s.p50": 0.25, "latency_s.p90": 0.25}


# -- self time and coverage -------------------------------------------------------


def _span(sid, parent, name, dur, pid=100):
    return {"id": sid, "parent": parent, "name": name, "dur": dur, "pid": pid, "tags": {}}


SPANS = [
    _span(1, None, "op", 10.0),
    _span(2, 1, "parse", 2.0),
    _span(3, 1, "abstract", 5.0),
    _span(4, 3, "prepass", 3.0),
    _span(5, 4, "prepass.fraig", 1.0),
    # A plane worker's span: other pid, own id space, overlaps its parent.
    _span(1, None, "cone_reduction", 4.0, pid=200),
]


def test_self_time_subtracts_children_of_the_same_process():
    own = layers.self_times(SPANS, pid=100)
    assert own == {1: 3.0, 2: 2.0, 3: 2.0, 4: 2.0, 5: 1.0}


def test_fold_maps_spans_to_layer_metrics():
    by_metric, root = layers.fold_op(SPANS, pid=100)
    assert root == 10.0
    assert by_metric == {
        "verify.other.s": 3.0,
        "parse.s": 2.0,
        "verify.abstract.s": 2.0,
        "prepass.canon.s": 2.0,
        "prepass.fraig.s": 1.0,
    }
    assert sum(by_metric.values()) == pytest.approx(root)


def test_fold_rejects_a_span_with_no_layer():
    with pytest.raises(KeyError):
        layers.fold_op([_span(1, None, "op", 1.0), _span(2, 1, "mystery", 0.5)], pid=100)


def test_coverage_is_the_share_outside_the_root():
    by_metric, root = layers.fold_op(SPANS, pid=100)
    assert layers.coverage(by_metric, root) == pytest.approx(0.7)
    assert layers.coverage({}, 0.0) == 0.0


def test_traced_verify_maps_every_program_span(small_fields, tmp_path):
    plan = workloads.gen_bug_hunt(seed=5)
    ops = workloads.build_pass(plan, 0, tmp_path)
    with layers.LayerTracer() as tracer:
        for op in ops:
            seconds, error = child.run_op(op, tracer)
            tracer.account()
            assert error is None
    metrics = tracer.metrics()
    assert set(metrics) | {"trace_overhead"} == set(layers.UNITS)
    assert metrics["coverage"] > 0.5
    assert metrics["prepass.canon.s"] > 0 and metrics["parallel.engaged"] == 0
    # Leaving the tracer restores every wrapped function.
    import repro.prepass.reduce as reduce_module

    assert not hasattr(reduce_module.sat_sweep, "__wrapped__")


# -- inputs ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["bug_hunt", "regression_stream"])
def test_same_seed_gives_identical_netlists(workload, tmp_path):
    # Through the real generator step: generated net names come from a
    # process-wide counter, so identity holds per fresh interpreter.
    def plan_bytes(seed: int, name: str) -> bytes:
        workdir = tmp_path / name
        workdir.mkdir()
        code, _, timed_out = run.run_child(
            ["gen", "--workload", workload, "--seed", str(seed)], workdir, 60
        )
        assert code == 0 and not timed_out
        return (workdir / "plan.pkl").read_bytes()

    first = plan_bytes(11, "first")
    assert plan_bytes(11, "again") == first
    assert plan_bytes(12, "other") != first


def test_regression_stream_writes_before_it_reads(small_fields):
    ops = workloads.gen_regression_stream(3)["passes"][0]
    seen = set()
    for op in ops:
        pair = (op["k"], op["modulus"], op["spec"])
        assert (op["role"] == "new") == (pair not in seen)
        seen.add(pair)
    assert sorted(op["role"] for op in ops).count("new") == len(ops) // 4


# -- oracles and error accounting ---------------------------------------------------


def test_injected_wrong_answer_and_exception_count_as_failures(small_fields, tmp_path):
    plan = workloads.gen_bug_hunt(seed=2)
    ops = workloads.build_pass(plan, 0, tmp_path)
    assert all(child.run_op(op)[1] is None for op in ops)

    wrong, broken = ops[0], ops[1]
    wrong.run = lambda: {"verdict": "equivalent", "counterexample": None}
    broken.run = lambda: 1 / 0
    events = []
    for op in ops:
        seconds, error = child.run_op(op)
        events.append({"label": op.label, "seconds": seconds, "error": error})
    summary = run.summarize({"passes": [1.0], "ops": events})
    assert summary["attempted"] == len(ops)
    assert summary["failed"] == 2
    assert summary["error_rate"] == pytest.approx(2 / len(ops))
    assert "ZeroDivisionError" in summary["errors"][1]


def test_an_interrupted_child_counts_its_open_op_as_failed(tmp_path):
    events = tmp_path / "events.jsonl"
    events.write_text(
        '{"event": "setup", "setup_s": 0.1}\n'
        '{"event": "op_start", "label": "a"}\n'
        '{"event": "op", "label": "a", "seconds": 0.5, "error": null}\n'
        '{"event": "op_start", "label": "b"}\n'
    )
    result = run.read_events(events, "timed out")
    assert result["end"] is None
    assert [op["error"] for op in result["ops"]] == [None, "timed out"]
    summary = run.summarize({"passes": [], "ops": result["ops"]})
    assert summary["failed"] == 1 and summary["metrics"]["wall_s"] == 0.5


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "harness"
    shutil.copytree(HERE, bare, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "bug_hunt", "--seed", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
