"""Tests for the experiment-runner CLI."""

import pytest

from repro.cli import (
    EXPERIMENTS,
    build_parser,
    list_experiments,
    main,
    run_experiment,
)


def test_list_mentions_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert "all" in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_unknown_experiment_errors(capsys):
    assert main(["run", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "figure8" in err  # the listing is shown for help


def test_run_quick_experiment(capsys):
    assert main(["run", "table1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "TranSend" in out


def test_run_with_seed(capsys):
    assert main(["run", "figure5", "--quick", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "(seed 5)" in out
    assert "Figure 5" in out


def test_every_row_names_its_driver_and_parameters():
    """A row resolves to its driver, and every key of its two scales is
    one of the driver's parameters: a typo fails here, not only when
    that experiment runs."""
    import inspect

    for name, experiment in EXPERIMENTS.items():
        assert experiment.description, name
        parameters = inspect.signature(experiment.function).parameters
        for scale in (experiment.full, experiment.quick):
            assert set(scale) <= set(parameters), (name, sorted(scale))


@pytest.mark.parametrize("name", ["figure7", "manager", "hotbot",
                                  "economics"])
def test_quick_runners_produce_output(name):
    text = run_experiment(name, seed=3, quick=True)
    assert name in text
    assert len(text.splitlines()) >= 3


def test_parser_shape():
    parser = build_parser()
    args = parser.parse_args(["run", "figure8", "--seed", "9",
                              "--quick"])
    assert args.experiment == "figure8"
    assert args.seed == 9
    assert args.quick


def test_chaos_list(capsys):
    assert main(["chaos", "list"]) == 0
    out = capsys.readouterr().out
    assert "mixed" in out
    assert "smoke" in out


def test_chaos_unknown_campaign(capsys):
    assert main(["chaos", "nonsense"]) == 2
    assert "unknown campaign" in capsys.readouterr().err


def test_chaos_smoke_runs_clean(capsys):
    assert main(["chaos", "smoke", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "invariants all held" in out
    assert "yield" in out


def test_chaos_exit_code_reflects_violations(capsys, monkeypatch):
    from repro.core.worker_stub import WorkerStub

    def no_register(self, beacon):
        return iter(())

    monkeypatch.setattr(WorkerStub, "_register", no_register)
    assert main(["chaos", "smoke", "--seed", "3"]) == 1
    assert "VIOLATIONS" in capsys.readouterr().out


def test_unknown_experiment_lists_every_name(capsys):
    """Exit 2, no traceback, and the full catalog on stderr."""
    assert main(["run", "nonsense"]) == 2
    err = capsys.readouterr().err
    for name in EXPERIMENTS:
        assert name in err


def test_unknown_campaign_lists_every_name(capsys):
    from repro.chaos import CAMPAIGNS

    assert main(["chaos", "nonsense"]) == 2
    err = capsys.readouterr().err
    for name in CAMPAIGNS:
        assert name in err


@pytest.mark.parametrize("argv, flag", [
    (["chaos", "smoke", "--runs", "0"], "--runs"),
    (["chaos", "smoke", "--jobs", "0"], "--jobs"),
    (["chaos", "smoke", "--trace-out", "f", "--sample", "0"], "--sample"),
    (["run", "table1", "--jobs", "0"], "--jobs"),
    (["run", "table1", "--trace-out", "f", "--sample", "-3"], "--sample"),
    (["trace", "--duration", "-1"], "--duration"),
    (["trace", "--rate", "0"], "--rate"),
    (["chaos", "smoke", "--runs", "-1"], "--runs"),
    (["run", "table1", "--jobs", "x"], "--jobs"),
    (["spans", "f.json", "--tree", "x"], "--tree"),
    (["trace", "--duration", "x"], "--duration"),
    (["trace", "--duration", "0"], "--duration"),
    (["trace", "--rate", "-5"], "--rate"),
    (["spans", "f.json", "--tree", "-3"], "--tree"),
])
def test_bad_counts_and_sizes_fail_at_the_parser(argv, flag, capsys):
    """Exit 2 and one line naming the flag — nothing runs, nothing
    raises out of a simulator module."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    error_line = capsys.readouterr().err.strip().splitlines()[-1]
    assert f"argument {flag}: must be" in error_line


# -- the --policy switch ------------------------------------------------------


def test_policy_flag_parses_on_run_and_chaos():
    parser = build_parser()
    args = parser.parse_args(["run", "policies", "--quick",
                              "--policy", "ewma+eject"])
    assert args.policy == "ewma+eject"
    args = parser.parse_args(["chaos", "smoke", "--policy", "p2c"])
    assert args.policy == "p2c"


def test_policy_flag_rejected_for_unaware_experiment(capsys):
    assert main(["run", "table2", "--quick", "--policy", "p2c"]) == 2
    err = capsys.readouterr().err
    assert "--policy only applies to" in err
    assert "policies" in err


def test_policy_flag_rejects_unknown_spec(capsys):
    assert main(["run", "policies", "--quick",
                 "--policy", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "unknown routing policy" in err
    assert "available policies" in err


def test_chaos_policy_flag_rejects_unknown_spec(capsys):
    assert main(["chaos", "smoke", "--policy",
                 "lottery+nonsense"]) == 2
    assert "unknown policy wrapper" in capsys.readouterr().err


def test_chaos_policy_flag_threads_into_the_campaign(monkeypatch):
    """--policy must land on the campaign before the runner builds."""
    seen = {}

    class FakeRunner:
        def __init__(self, campaign, seed=1997):
            seen.update(campaign.config_overrides)

        def run(self):
            class Report:
                ok = True

                def render(self):
                    return "fake"
            return Report()

    monkeypatch.setattr("repro.chaos.CampaignRunner", FakeRunner)
    assert main(["chaos", "smoke", "--policy", "least-outstanding"]) == 0
    assert seen["routing_policy"] == "least-outstanding"


# -- span tracing (--trace-out / spans) -----------------------------------------


def test_run_trace_out_writes_valid_chrome_trace(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    assert main(["run", "endtoend", "--quick", "--seed", "1997",
                 "--trace-out", str(out), "--sample", "10"]) == 0
    text = capsys.readouterr().out
    assert "latency reduction" in text        # the experiment itself
    assert "latency attribution over" in text  # plus the span report
    assert "components sum to e2e within" in text
    document = json.loads(out.read_text())
    events = [event for event in document["traceEvents"]
              if event.get("ph") == "X"]
    assert events
    for event in events:
        assert {"name", "ts", "dur", "pid", "tid"} <= set(event)
        assert "trace_id" in event["args"]


def test_trace_out_components_sum_per_sampled_request(tmp_path,
                                                      capsys):
    """The acceptance criterion through the CLI: every sampled request
    in the written file decomposes to within 1% of its end-to-end."""
    from repro.obs import load_chrome_trace
    from repro.obs.attribution import attribute_trace, find_root

    out = tmp_path / "trace.json"
    assert main(["run", "endtoend", "--quick", "--seed", "1997",
                 "--trace-out", str(out), "--sample", "5"]) == 0
    capsys.readouterr()
    traces = load_chrome_trace(str(out))
    assert traces
    for trace_id, spans in traces.items():
        root = find_root(spans)
        components = attribute_trace(spans)
        if root is None or not components or root.duration == 0:
            continue
        residual = abs(sum(components.values()) - root.duration)
        assert residual <= 0.01 * root.duration, trace_id


def test_spans_subcommand_summarizes_a_trace_file(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["run", "endtoend", "--quick", "--seed", "1997",
                 "--trace-out", str(out), "--sample", "10"]) == 0
    capsys.readouterr()
    assert main(["spans", str(out), "--tree", "1"]) == 0
    text = capsys.readouterr().out
    assert "trace(s)" in text
    assert "latency attribution over" in text
    assert "critical path:" in text
    assert "request [other] @client" in text


def test_spans_subcommand_missing_file(tmp_path, capsys):
    assert main(["spans", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_chaos_trace_out(tmp_path, capsys):
    import json

    out = tmp_path / "chaos-trace.json"
    assert main(["chaos", "smoke", "--seed", "3",
                 "--trace-out", str(out), "--sample", "20"]) == 0
    text = capsys.readouterr().out
    assert "invariants all held" in text
    assert "latency attribution over" in text
    assert json.loads(out.read_text())["traceEvents"]


def test_run_without_trace_out_never_installs_tracers(capsys):
    """The strictly-opt-in guarantee at the CLI layer."""
    from repro.obs import tracing_settings

    assert main(["run", "table1", "--quick"]) == 0
    capsys.readouterr()
    assert tracing_settings() is None


def test_help_disambiguates_workload_traces_from_spans():
    parser = build_parser()
    text = parser.format_help()
    assert "workload trace" in text
    assert "spans" in text


def test_replay_is_not_a_command(capsys):
    """The toy queue+SAN replay is gone; the parser refuses the verb."""
    with pytest.raises(SystemExit) as exit_info:
        main(["replay", "--duration", "10"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'replay'" in capsys.readouterr().err
