"""Campaign-level tests: the ISSUE's acceptance scenario and the
"checker has teeth" falsification."""

import pytest

from repro.chaos import (
    CAMPAIGNS,
    AsymmetricLink,
    Campaign,
    CampaignRunner,
    CrashSearchNode,
    CrashWorkerNode,
    GrayBrick,
    GrayWorker,
    KillBrick,
    KillWorker,
    LossyWindow,
    PartitionSAN,
    RandomKills,
    RollingKills,
    RollingUpgrade,
    Straggle,
    get_campaign,
    run_campaign,
)
from repro.core.worker_stub import WorkerStub


def test_get_campaign_unknown_name():
    with pytest.raises(KeyError):
        get_campaign("no-such-campaign")


def test_campaign_validation_rejects_unhealable_end():
    campaign = Campaign(
        name="bad", description="fault outlives the run",
        duration_s=20.0,
        actions=[LossyWindow(at=5.0, duration_s=30.0, loss=0.5)])
    with pytest.raises(ValueError):
        campaign.validate()


def test_campaign_validation_rejects_negative_times():
    campaign = Campaign(
        name="bad", description="fault before t=0", duration_s=20.0,
        actions=[KillWorker(at=-1.0)])
    with pytest.raises(ValueError):
        campaign.validate()


@pytest.mark.parametrize("action, spec", [
    (PartitionSAN(at=5.0, isolate=["manager", "worker:x"]), "worker:x"),
    (PartitionSAN(at=5.0, isolate=["frontend:"]), "frontend:"),
    (AsymmetricLink(at=5.0, src="worker:1.5"), "worker:1.5"),
    (AsymmetricLink(at=5.0, dst="frontend:-1"), "frontend:-1"),
])
def test_campaign_validation_rejects_malformed_node_specs(action, spec):
    """A typo in a symbolic node spec fails at validate(), naming the
    action and the spec, not inside a kernel process mid-run."""
    campaign = Campaign(name="bad", description="node spec typo",
                        duration_s=60.0, actions=[action])
    with pytest.raises(ValueError) as raised:
        campaign.validate()
    assert type(action).__name__ in str(raised.value)
    assert repr(spec) in str(raised.value)


@pytest.mark.parametrize("action, name", [
    (Straggle(at=5.0, factor=2.0), "factor"),
    (Straggle(at=5.0, factor=0.0), "factor"),
    (PartitionSAN(at=5.0, duration_s=-3.0), "duration_s"),
    (PartitionSAN(at=5.0, isolate=()), "isolate"),
    (AsymmetricLink(at=5.0, src="manager", dst="manager"), "dst"),
    (CrashWorkerNode(at=5.0, duration_s=0.0), "duration_s"),
    (RollingKills(at=5.0, duration_s=0.0), "duration_s"),
    (RollingKills(at=5.0, duration_s=3.0), "duration_s"),
    (LossyWindow(at=5.0, loss=1.5), "loss"),
    (LossyWindow(at=5.0, duplicate=-0.1), "duplicate"),
    (LossyWindow(at=5.0, jitter_s=-0.1), "jitter"),
    (LossyWindow(at=5.0, loss=0.0), "loss"),
    (KillWorker(at=float("nan")), "at"),
    (GrayWorker(at=5.0, mode="slow"), "mode"),
    (GrayWorker(at=5.0, mode="hang", victim=-1), "victim"),
    (GrayBrick(at=5.0, mode="leak"), "mode"),
    (KillBrick(at=5.0, slot=-1), "slot"),
    (RandomKills(at=5.0, mtbf_s=float("nan")), "mtbf_s"),
    (RandomKills(at=5.0, mtbf_s=0.0), "mtbf_s"),
    (RandomKills(at=5.0, mtbf_s=-15.0), "mtbf_s"),
    (RandomKills(at=5.0, mtbf_s=float("inf")), "mtbf_s"),
    (RandomKills(at=5.0, duration_s=float("nan")), "duration_s"),
    (RollingUpgrade(at=5.0, nodes=()), "nodes"),
    (RollingUpgrade(at=5.0, nodes=("node1", "worker:x")), "worker:x"),
    (RollingUpgrade(at=float("inf"), nodes=("node1",)), "at"),
    (GrayWorker(at=5.0, mode="fail-slow", factor=0.5), "factor"),
    (GrayWorker(at=5.0, mode="fail-slow", factor=float("nan")), "factor"),
    (CrashSearchNode(at=5.0, partition=-1), "partition"),
    (CrashSearchNode(at=5.0, partition=0, duration_s=0.0), "duration_s"),
])
def test_campaign_validation_rejects_bad_fault_fields(action, name,
                                                      monkeypatch):
    """A bad fault value fails at validate(), naming the action and the
    field, before a fabric is built — not inside ``cluster.run()``."""
    def no_fabric(**kwargs):
        raise AssertionError("a fabric was built for an invalid campaign")

    monkeypatch.setattr("repro.chaos.campaign.build_bench_fabric",
                        no_fabric)
    campaign = Campaign(name="bad", description="bad field",
                        duration_s=60.0, actions=[action])
    with pytest.raises(ValueError) as raised:
        CampaignRunner(campaign)
    assert type(action).__name__ in str(raised.value)
    assert name in str(raised.value)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("overrides, name", [
    (dict(duration_s=NAN), "duration_s"),
    (dict(duration_s=INF), "duration_s"),
    (dict(duration_s=0.0), "duration_s"),
    (dict(rate_rps=NAN), "rate_rps"),
    (dict(rate_rps=INF), "rate_rps"),
    (dict(rate_rps=-1.0), "rate_rps"),
    (dict(rate_rps=0.0), "rate_rps"),
    (dict(n_nodes=0), "n_nodes"),
    (dict(n_nodes=8.0), "n_nodes"),
    (dict(initial_workers=-1), "initial_workers"),
    (dict(initial_workers=0), "initial_workers"),
    (dict(slo_latency_s=NAN), "slo_latency_s"),
    (dict(slo_latency_s=0.0), "slo_latency_s"),
    (dict(settle_s=INF), "settle_s"),
    (dict(settle_s=-1.0), "settle_s"),
    (dict(profile_write_interval_s=0.0), "profile_write_interval_s"),
    (dict(profile_write_interval_s=NAN), "profile_write_interval_s"),
    (dict(profile_read_slo=NAN), "profile_read_slo"),
    (dict(profile_read_slo=0.0), "profile_read_slo"),
    (dict(profile_read_slo=1.5), "profile_read_slo"),
    (dict(pool_size=0), "pool_size"),
    (dict(pool_size=INF), "pool_size"),
    (dict(record_bytes=-1), "record_bytes"),
    (dict(record_bytes=NAN), "record_bytes"),
    (dict(arrival_schedule=((NAN, 12.0),)), "arrival step"),
    (dict(arrival_schedule=((10.0, INF),)), "arrival step"),
    (dict(arrival_schedule=((10.0, -1.0),)), "arrival step"),
    (dict(arrival_schedule=((0.0, 12.0),)), "arrival step"),
])
def test_campaign_validation_rejects_bad_campaign_fields(overrides, name,
                                                         monkeypatch):
    """A NaN SLO used to report no violation where 0.001 s reports one,
    and a zero profile-write interval hung the run: each bad campaign
    value now fails at validate(), naming the field, before a fabric is
    built."""
    def no_fabric(**kwargs):
        raise AssertionError("a fabric was built for an invalid campaign")

    monkeypatch.setattr("repro.chaos.campaign.build_bench_fabric",
                        no_fabric)
    fields = dict(name="bad", description="bad field", duration_s=60.0)
    fields.update(overrides)
    with pytest.raises(ValueError) as raised:
        CampaignRunner(Campaign(**fields))
    assert name in str(raised.value)


@pytest.mark.parametrize("build", [
    lambda: KillWorker(at=5.0, count=0),
    lambda: GrayBrick(at=5.0, mode="fail-slow", factor=0.5),
    lambda: GrayWorker(at=5.0, mode="leak", rate_per_s=-1.0),
    lambda: RollingKills(at=5.0, period_s=0.0),
    lambda: RollingUpgrade(at=5.0, nodes=("node1",), hold_s=float("nan")),
    lambda: RollingUpgrade(at=5.0, nodes=("node1",), settle_s=-1.0),
    lambda: Campaign(name="x", description="x", duration_s=9.0,
                     n_frontends=1),
    lambda: Campaign(name="x", description="x", duration_s=9.0,
                     client_timeout_s=10.0),
])
def test_one_value_options_are_constants(build):
    """Options that only ever took one value are module constants; the
    values that misbehaved (a zero count, a sub-1 brick slow factor, a
    negative leak, a zero period, a NaN hold, a negative settle) cannot
    be written down any more."""
    with pytest.raises(TypeError):
        build()


def test_a_fault_due_inside_the_boot_window_is_refused_when_armed():
    """The runner arms after a 2 s boot; a row due before that used to
    fire late, at 2 s, and be recorded there.  Arming refuses it,
    naming the row, before the run goes on."""
    campaign = Campaign(name="early", description="a kill at 0.5 s",
                        duration_s=30.0, actions=(KillWorker(at=0.5),))
    campaign.validate()  # a valid time, just not one the runner reaches
    runner = CampaignRunner(campaign)
    with pytest.raises(ValueError) as raised:
        runner.run()
    assert "KillWorker(at=0.5)" in str(raised.value)
    assert "before now" in str(raised.value)
    assert runner.env.now == 2.0
    assert runner.faults.timeline == []


def test_campaign_validation_accepts_every_node_spec_form():
    Campaign(name="ok", description="the grammar", duration_s=60.0,
             actions=[PartitionSAN(at=5.0, isolate=[
                 "manager", "worker:0", "frontend:12", "node3",
                 "worker"])]).validate()


def test_smoke_campaign_holds_invariants():
    report = run_campaign(get_campaign("smoke"), seed=7)
    assert report.ok, report.violations
    assert report.submitted > 100
    assert report.overall_yield >= 0.95
    assert report.recovered


def test_smoke_campaign_deterministic():
    one = run_campaign(get_campaign("smoke"), seed=11)
    two = run_campaign(get_campaign("smoke"), seed=11)
    assert one.submitted == two.submitted
    assert one.series == two.series
    assert one.counters == two.counters
    assert [repr(r) for r in one.fault_timeline] == \
        [repr(r) for r in two.fault_timeline]


def test_mixed_campaign_acceptance():
    """The ISSUE's acceptance bar: manager crash + 20% beacon loss +
    straggler + rolling kills completes with ZERO invariant violations,
    and yield is back over 95% within 5 beacon intervals of the final
    heal."""
    report = run_campaign(get_campaign("mixed"), seed=1997)
    assert report.ok, report.violations
    assert report.counters["manager_restarts"] >= 1
    assert report.counters["datagrams_lost"] > 0
    assert any(record.kind == "kill" and "manager" in record.target
               for record in report.fault_timeline)
    assert report.recovered
    assert report.recovery_beacon_periods <= 5.0
    assert report.convergence_s is not None


def test_checker_has_teeth(monkeypatch):
    """The same mixed campaign with worker re-registration disabled must
    FAIL — otherwise the zero-violations result above proves nothing."""
    def no_register(self, beacon):
        return iter(())  # discover the manager, tell it nothing

    monkeypatch.setattr(WorkerStub, "_register", no_register)
    report = run_campaign(get_campaign("mixed"), seed=1997)
    assert not report.ok
    assert any(violation.invariant in ("convergence", "reregistration")
               for violation in report.violations)


def test_every_preset_campaign_is_well_formed():
    for name, campaign in CAMPAIGNS.items():
        campaign.validate()
        assert campaign.name == name
        assert campaign.description
        assert campaign.final_heal_s < campaign.duration_s


def test_report_render_mentions_the_essentials():
    report = run_campaign(get_campaign("smoke"), seed=7)
    text = report.render()
    assert "yield" in text
    assert "harvest" in text
    assert "invariants all held" in text
    assert "kill" in text  # the fault timeline


def test_runner_reuses_one_fabric_per_run():
    runner = CampaignRunner(get_campaign("smoke"), seed=7)
    report = runner.run()
    assert runner.fabric.manager is not None
    assert report.campaign == "smoke"
    # hardened request path was active
    config = runner.fabric.config
    assert config.shed_expired_requests
    assert config.admission_max_backlog_s is not None
