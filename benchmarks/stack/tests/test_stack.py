"""Tests of the benchmark itself, at smoke-test scale.

Not part of tier 1; run by explicit path:

    PYTHONPATH=src python -m pytest benchmarks/stack/tests -q
"""

import json
import re

import pytest

from benchmarks.stack import run
from benchmarks.stack.harness import run_unit
from benchmarks.stack.workloads import WORKLOADS

SPEC = json.loads(run.BENCHMARK_JSON.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def declared(kind):
    return {entry["name"] for entry in SPEC[kind]}


def test_declared_names_are_well_formed_and_unique():
    names = [entry["name"] for kind in ("workloads", "end_to_end",
                                        "per_layer")
             for entry in SPEC[kind]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert declared("workloads") == set(WORKLOADS)
    assert {entry["why"] for entry in SPEC["workloads"]} \
        == {workload.why for workload in WORKLOADS.values()}


def test_end_to_end_run_reports_exactly_the_declared_metrics():
    metrics, details = run.measure_end_to_end(
        WORKLOADS["jpeg_dispatch"], seed=7, seconds=0.0, scale=0.03)
    assert set(metrics) == declared("end_to_end")
    assert all(value > 0 for value in metrics.values())
    assert details["units"] == run.POOLED_UNITS
    assert details["failed"] == 0


@pytest.fixture(scope="module")
def jpeg_layers():
    return run.measure_layers(WORKLOADS["jpeg_dispatch"], seed=7,
                              scale=0.1, import_s=0.0)


def test_traced_run_reports_exactly_the_declared_metrics(jpeg_layers):
    metrics, details = jpeg_layers
    assert set(metrics) == declared("per_layer")
    assert details["mismatched"] == []  # tracing changed nothing


def test_jpeg_dispatch_bypasses_the_cache_and_runs_the_fast_path(
        jpeg_layers):
    metrics, _ = jpeg_layers
    assert metrics["cache.lookups_per_req"] == 0
    assert metrics["cache.host_share"] == 0
    assert metrics["transend.host_share"] == 0
    assert metrics["core.manager_stub.attempts_per_req"] == 1
    assert metrics["core.manager_stub.retry_share"] == 0
    assert metrics["core.manager_stub.host_share"] > 0


def test_same_seed_same_results_other_seed_other_results():
    workload = WORKLOADS["transend_mix"]
    first = run_unit(workload, 11, 0.05)
    again = run_unit(workload, 11, 0.05)
    other = run_unit(workload, 12, 0.05)
    assert first.exact() == again.exact()
    assert first.latencies_s == again.latencies_s
    assert first.counters == again.counters
    assert first.exact() != other.exact()


def test_overload_ramp_degrades_spawns_and_retries_but_never_fails():
    unit = run_unit(WORKLOADS["overload_ramp"], 5, 0.25)
    assert unit.failed == 0
    assert 0 < unit.grades.count("degraded") < unit.submitted
    assert unit.counters["manager.spawns"] >= 1
    assert unit.counters["manager.failures_detected"] >= 1
    assert unit.counters["stub.retries"] > 0
    report = run.step_report(WORKLOADS["overload_ramp"], [unit])
    assert run.max_ok_rate(report) == 160.0


def test_hotbot_scatter_mostly_misses_the_query_cache():
    unit = run_unit(WORKLOADS["hotbot_scatter"], 5, 0.25)
    counters = unit.counters
    assert counters["hotbot.cache_served"] \
        <= 0.25 * counters["hotbot.queries"]
    assert counters["hotbot.legs"] \
        == 16 * (counters["hotbot.queries"]
                 - counters["hotbot.cache_served"])
    assert unit.grades.count("full") == unit.submitted


def test_a_failed_request_makes_the_run_incorrect(capsys, monkeypatch):
    measure = run.measure_end_to_end

    def one_failure(*args):
        metrics, details = measure(*args)
        return metrics, dict(details, failed=1)

    monkeypatch.setattr(run, "measure_end_to_end", one_failure)
    assert run.main(["--workload", "jpeg_dispatch", "--seed", "7",
                     "--seconds", "0", "--scale", "0.03"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_cli_rejects_unknown_workloads_and_stamps_smoke_runs(capsys):
    assert run.main(["--workload", "nope", "--seed", "1"]) == 2
    assert run.main(["--workload", "hotbot_scatter", "--seed", "1",
                     "--trace", "1", "--scale", "0.2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "SMOKE TEST" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == declared("per_layer")
