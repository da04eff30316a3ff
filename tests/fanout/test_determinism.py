"""The fan-out determinism guarantee: ``--jobs N`` output is
byte-identical to ``--jobs 1`` — sweep renders, chaos batch reports,
and merged span-trace files alike (ISSUE 5 acceptance criteria).
"""

import os

import pytest

from repro.chaos import run_campaign_batch
from repro.experiments import Experiment, run_population_sweep
from repro.obs import capture_traces, export_chrome_trace

JOBS = 4


def test_population_sweep_byte_identical_across_jobs():
    kwargs = dict(populations=(25, 100, 400), requests_per_user=20,
                  seed=11)
    serial = run_population_sweep(**kwargs)
    pooled = run_population_sweep(**kwargs, jobs=JOBS)
    assert serial.render() == pooled.render()
    assert serial.sweep == pooled.sweep
    assert serial.byte_hit_rates == pooled.byte_hit_rates


def test_chaos_batch_byte_identical_across_jobs():
    serial = run_campaign_batch("smoke", master_seed=5, runs=3, jobs=1)
    pooled = run_campaign_batch("smoke", master_seed=5, runs=3,
                                jobs=JOBS)
    assert serial.render(verbose=True) == pooled.render(verbose=True)
    assert serial.seeds == pooled.seeds
    assert serial.merged_counters() == pooled.merged_counters()
    serial_latency = serial.merged_latency()
    pooled_latency = pooled.merged_latency()
    assert serial_latency.summary() == pooled_latency.summary()


def _batch_trace_bytes(tmp_path, jobs):
    out = tmp_path / f"trace-jobs{jobs}.json"
    with capture_traces(sample_every=5) as tracers:
        batch = run_campaign_batch("smoke", master_seed=5, runs=2,
                                   jobs=jobs)
    assert batch.ok
    count = export_chrome_trace(tracers, str(out))
    assert count > 0
    return out.read_bytes()


def test_span_trace_merge_byte_identical_across_jobs(tmp_path):
    assert _batch_trace_bytes(tmp_path, 1) == \
        _batch_trace_bytes(tmp_path, JOBS)


# -- crash isolation surfaces as harvest + exit code -----------------------


class _Fine:
    def render(self):
        return "fine"


def _crashing_driver(seed):
    os._exit(23)


def _ok_driver(seed):
    return _Fine()


OK = Experiment("a fine experiment", f"{__name__}:_ok_driver")
BOOM = Experiment("a crashing experiment", f"{__name__}:_crashing_driver")


def test_run_all_with_crashed_shard_exits_nonzero(monkeypatch, capsys):
    import repro.cli as cli

    # two tiny stand-in experiments; fork shares the patched table
    # with the shard children, so only the parent needs the patch
    monkeypatch.setattr(cli, "EXPERIMENTS", {"ok": OK, "boom": BOOM})
    exit_code = cli.main(["run", "all", "--jobs", "2"])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "fine" in captured.out  # the surviving shard still printed
    assert "run[boom]" in captured.err
    assert "harvest 50%" in captured.err
    assert "1 of 2" in captured.err


def test_run_all_serial_unaffected(monkeypatch, capsys):
    import repro.cli as cli

    monkeypatch.setattr(cli, "EXPERIMENTS", {"ok": OK})
    assert cli.main(["run", "all"]) == 0
    assert "fine" in capsys.readouterr().out


def test_chaos_cli_batch_progress_and_quiet(capsys):
    import repro.cli as cli

    assert cli.main(["chaos", "smoke", "--seed", "5", "--runs", "2",
                     "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert "campaign batch" in captured.out
    assert "smoke#run0:seed=5" in captured.err
    assert "smoke#run1:seed=" in captured.err

    assert cli.main(["chaos", "smoke", "--seed", "5", "--runs", "2",
                     "--quiet"]) == 0
    captured = capsys.readouterr()
    assert "campaign batch" in captured.out
    assert captured.err == ""
