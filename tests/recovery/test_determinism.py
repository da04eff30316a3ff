"""The determinism contract: supervision enabled but no faults injected
must be byte-identical to no supervision at all — same request outcomes,
same counters, the same draws from every RNG stream."""

from repro.chaos import Campaign, CampaignRunner
from repro.recovery import RecoveryPolicy


def run_no_fault_campaign(recovery, seed=11):
    campaign = Campaign(
        name="no-faults",
        description="clean run for the determinism contract",
        duration_s=30.0,
        actions=[],
        rate_rps=12.0,
        n_nodes=8,
        initial_workers=2,
        settle_s=5.0,
        recovery=recovery,
    )
    runner = CampaignRunner(campaign, seed=seed)
    report = runner.run()
    outcomes = [(o.ok, o.latency, o.error) for o in runner.engine.outcomes]
    return runner, report, outcomes


def test_supervised_fault_free_run_matches_unsupervised():
    plain_runner, plain_report, plain = run_no_fault_campaign(None)
    sup_runner, sup_report, supervised = run_no_fault_campaign(
        RecoveryPolicy())

    assert supervised == plain
    assert sup_report.submitted == plain_report.submitted
    assert sup_report.series == plain_report.series
    assert sup_report.overall_yield == plain_report.overall_yield
    assert sup_report.latency == plain_report.latency

    supervisor = sup_runner.supervisor
    assert supervisor is not None and supervisor.alive
    assert supervisor.probes_sent > 0
    assert supervisor.suspicions == 0
    assert supervisor.restarts == 0
    assert supervisor.ledger.false_alarms == []
    assert supervisor.alerts == []

    # shared counters agree except the supervisor-only additions
    shared = {key: value
              for key, value in sup_report.counters.items()
              if key in plain_report.counters}
    assert shared == plain_report.counters


def test_supervision_draws_from_no_stream_without_faults():
    """The supervisor owns no random stream, and a fault-free supervised
    run leaves every stream where the unsupervised run leaves it."""
    plain, _, _ = run_no_fault_campaign(None)
    supervised, _, _ = run_no_fault_campaign(RecoveryPolicy())

    def states(runner):
        return {name: stream._random.getstate() for name, stream
                in runner.cluster.streams._streams.items()}

    assert states(supervised) == states(plain)


def test_supervised_runs_are_seed_reproducible():
    _, one, first = run_no_fault_campaign(RecoveryPolicy(), seed=23)
    _, two, second = run_no_fault_campaign(RecoveryPolicy(), seed=23)
    assert first == second
    assert one.counters == two.counters
    assert one.series == two.series
