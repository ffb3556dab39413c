"""Tests of the benchmark itself: the smoke mode emits every metric, the
gate trips on a wrong pin, the tracer tolerates missing names and its
layer self times account for the traced wall.

Run with ``python3 -m pytest -q bench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src on sys.path)
from tracer import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, SearchOutcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ONE_THREAD = ("altsum_theta", "fib_supermono", "verify_claims")


def smoke(name):
    return WORKLOADS[name][1]


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert set(worker.LAYER_SELF) <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    meta = json.loads(lines[0].removeprefix("meta "))
    assert meta["seed"] == 7 and meta["nproc"] >= 1 and meta["python"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gate_passes_the_pinned_outcome(name):
    assert worker.measure(smoke(name), trace=False)["problems"] == []


@pytest.mark.parametrize("name, wrong", [
    ("altsum_theta", {"nodes": 299}),
    ("altsum_theta_jobs2", {"witnesses": 1}),
    ("fib_supermono", {"nodes": 815}),
    ("verify_claims", {"suites": (("claim4", 7, 209), ("claim6", 14, 20))}),
])
def test_gate_trips_on_a_wrong_pin(name, wrong):
    workload = dataclasses.replace(smoke(name), **wrong)
    problems = worker.measure(workload, trace=False)["problems"]
    assert len(problems) == 1, problems


def test_gate_rechecks_witnesses_with_the_referee():
    from supermono.search import SearchReport
    workload = dataclasses.replace(smoke("altsum_theta"), witnesses=1)
    colouring = workload.setup()
    report = SearchReport({}, [[1, 2, 3]], True, workload.nodes, 3)
    problems = workload.problems(colouring, SearchOutcome(report))
    assert problems == ["witness [1, 2, 3] fails its verifier"]


def test_a_raising_pass_is_counted_not_fatal():
    workload = dataclasses.replace(smoke("verify_claims"),
                                   suites=(("no_such_suite", 1, 0),))
    problems = worker.measure(workload, trace=False)["problems"]
    assert len(problems) == 1 and problems[0].startswith("pass raised")


@pytest.mark.parametrize("name", ONE_THREAD)
def test_layer_self_times_sum_to_the_traced_wall(name):
    trace = worker.measure(smoke(name), trace=True)["trace"]
    wall = trace["trace.wall_s"]
    total = sum(trace[metric] for metric in worker.LAYER_SELF)
    assert 0 < total <= wall
    assert total >= 0.95 * wall - 0.001, (total, wall)


def test_tracer_reports_missing_names_as_absent_and_restores_the_rest():
    from supermono import pair_colouring, search
    original = search.colour_pair
    tracer = Tracer(SPANS + (
        ("supermono.search", "_renamed_constraints_helper", "search.constraints"),
        ("supermono.no_such_module", "anything", "gone.anything"),
    ))
    tracer.install()
    try:
        assert search.colour_pair is not original
        search.colour_pair(3, 5)
        pair_colouring.colour_pair(3, 5)
    finally:
        tracer.uninstall()
    assert search.colour_pair is original
    assert tracer.absent == ["supermono.search._renamed_constraints_helper",
                             "supermono.no_such_module.anything"]
    calls, total, self_time = tracer.stats()["pair_colouring.colour_pair"]
    assert calls == 2 and total >= self_time > 0
    assert tracer.distinct_pairs() == 1


def test_run_fails_without_a_result_when_the_library_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "altsum_theta",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
