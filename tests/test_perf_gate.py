"""The fan-out perf gate keys its speedup floor off the *runner's*
core count, never the count recorded in the committed JSON — a stale
measurement file from a small machine must not waive the floor on a
machine that can demonstrate the speedup."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_perf_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", REPO_ROOT / "benchmarks" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_gate = _load_perf_gate()


def payload(speedup=2.1, cpu_count=8, byte_identical=True):
    return {
        "benchmark": "fanout",
        "schema": 1,
        "calibration_ops_per_sec": 26206153,
        "cpu_count": cpu_count,
        "sweep": {
            "campaign": "smoke",
            "runs": 8,
            "jobs": 4,
            "serial_s": 2.0,
            "parallel_s": round(2.0 / speedup, 3),
            "speedup": speedup,
            "byte_identical": byte_identical,
        },
    }


def write(tmp_path, data):
    path = tmp_path / "BENCH_fanout.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def gate(path, runner_cores, min_speedup=1.8, min_cores=4):
    return perf_gate.gate_fanout(path, min_speedup, min_cores,
                                 runner_cores=runner_cores)


def test_passes_on_capable_runner_with_good_measurement(tmp_path,
                                                        capsys):
    path = write(tmp_path, payload(speedup=2.1, cpu_count=8))
    assert gate(path, runner_cores=8) == 0
    assert "perf gate passed" in capsys.readouterr().out


def test_byte_identity_failure_is_unconditional(tmp_path, capsys):
    path = write(tmp_path, payload(byte_identical=False, cpu_count=1))
    # even a 1-core runner (which skips the speedup floor) must fail
    assert gate(path, runner_cores=1) == 1
    assert "not byte-identical" in capsys.readouterr().out


def test_small_runner_skips_speedup_floor(tmp_path, capsys):
    # an honest sub-1x measurement from a 1-core machine passes there
    path = write(tmp_path, payload(speedup=0.83, cpu_count=1))
    assert gate(path, runner_cores=1) == 0
    out = capsys.readouterr().out
    assert "speedup floor skipped" in out
    assert "perf gate passed" in out


def test_stale_small_machine_file_fails_on_capable_runner(tmp_path,
                                                          capsys):
    """The satellite's core case: the committed JSON says cpu_count=1
    (floor unmeasurable there), but THIS runner has 8 cores — the gate
    must demand a regenerated measurement, not skip."""
    path = write(tmp_path, payload(speedup=0.83, cpu_count=1))
    assert gate(path, runner_cores=8) == 1
    out = capsys.readouterr().out
    assert "regenerate" in out
    assert "recorded on 1 core(s)" in out


def test_speedup_below_floor_fails(tmp_path, capsys):
    path = write(tmp_path, payload(speedup=1.2, cpu_count=8))
    assert gate(path, runner_cores=8) == 1
    assert "below the 1.80x floor" in capsys.readouterr().out


def test_cli_runner_cores_override(tmp_path, capsys):
    path = write(tmp_path, payload(speedup=2.1, cpu_count=8))
    assert perf_gate.main(["--fanout", str(path),
                           "--runner-cores", "8"]) == 0
    assert perf_gate.main(["--fanout", str(path),
                           "--runner-cores", "1"]) == 0
    capsys.readouterr()
    stale = write(tmp_path, payload(speedup=0.9, cpu_count=1))
    assert perf_gate.main(["--fanout", str(stale),
                           "--runner-cores", "4"]) == 1


def test_default_runner_cores_is_this_machine(tmp_path, monkeypatch,
                                              capsys):
    path = write(tmp_path, payload(speedup=2.1, cpu_count=8))
    monkeypatch.setattr(perf_gate.os, "cpu_count", lambda: 2)
    assert gate(path, runner_cores=None, min_cores=4) == 0
    assert "gate runner has 2" in capsys.readouterr().out


def test_single_core_artifact_warning_is_loud(tmp_path, capsys):
    """A committed file recorded on one core passes the gate there but
    must shout that its speedup number is fork overhead, not scaling."""
    path = write(tmp_path, payload(speedup=0.83, cpu_count=1))
    assert gate(path, runner_cores=1) == 0
    out = capsys.readouterr().out
    assert "WARNING" in out
    assert "single-core machine" in out
    assert "Regenerate on a multi-core box" in out


def test_no_warning_for_multicore_measurement(tmp_path, capsys):
    path = write(tmp_path, payload(speedup=2.1, cpu_count=8))
    assert gate(path, runner_cores=8) == 0
    assert "WARNING" not in capsys.readouterr().out


def test_committed_measurement_gate_decision_matches_runner(capsys):
    """The repo's own committed BENCH_fanout.json, gated exactly as CI
    runs it: a small runner always passes (floor skipped); a capable
    runner must reject a measurement recorded on a small machine."""
    committed = REPO_ROOT / "BENCH_fanout.json"
    data = json.loads(committed.read_text(encoding="utf-8"))
    runner = perf_gate.os.cpu_count() or 1
    exit_code = perf_gate.main(["--fanout", str(committed)])
    if runner < 4:
        assert exit_code == 0
    elif data["cpu_count"] < 4:
        assert exit_code == 1  # stale file: regenerate here first
