"""Campaign-level tests: the ISSUE's acceptance scenario and the
"checker has teeth" falsification."""

import pytest

from repro.chaos import (
    CAMPAIGNS,
    AsymmetricLink,
    Campaign,
    CampaignRunner,
    KillWorker,
    LossyWindow,
    PartitionSAN,
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
    for name, factory in CAMPAIGNS.items():
        campaign = factory().validate()
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
