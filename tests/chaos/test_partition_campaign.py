"""The partition-failures acceptance campaigns: soft vs consensus.

The same SAN-partition schedule runs against both control planes.  The
soft single manager gets deposed on stale views and keeps dispatching
on unbounded-staleness hints (wrong decisions, by design — the paper's
trade); the Paxos-replicated group must show **zero** wrong-decision
dispatches, bounded failover, and a clean safety audit, paying for it
with lease stalls while partitioned.
"""

import pytest

from repro.chaos import get_campaign, run_campaign, run_campaign_batch
from repro.chaos.batch import run_campaign_shard
from repro.cli import main


def _run(name, backend, seed=1997):
    campaign = get_campaign(name, {"manager_backend": backend})
    return run_campaign(campaign, seed=seed)


@pytest.fixture(scope="module")
def soft_report():
    return _run("partition-failures", "soft")


@pytest.fixture(scope="module")
def consensus_report():
    return _run("partition-failures", "consensus")


def test_soft_backend_shows_the_failure_mode(soft_report):
    report = soft_report
    assert report.ok, report.violations
    part = report.partition
    assert part["backend"] == "soft"
    # stale-view dispatches happened: the soft manager promises no bound
    assert part["wrong_decisions"] > 0
    assert part["lease_stalls"] == 0  # nothing to stall on
    # the partitioned-away manager was deposed, then fenced by
    # incarnation when its zombie beacons came back at the heal
    assert part["deposed_managers"] >= 1
    assert part["stale_beacons_rejected"] >= 1
    assert report.counters["manager_restarts"] >= 1
    assert part["multicast_blocked"] > 0


def test_consensus_backend_zero_wrong_decisions(consensus_report):
    report = consensus_report
    assert report.ok, report.violations  # includes the paxos safety audit
    part = report.partition
    assert part["backend"] == "consensus"
    assert part["wrong_decisions"] == 0  # the acceptance number
    assert part["deposed_managers"] == 0  # no watchdog restarts needed
    # the price of the bound: dispatch stalls while no lease is valid
    assert part["lease_stalls"] > 0
    assert part["dispatch_stall_s"] > 0


def test_consensus_failover_is_bounded_and_audited(consensus_report):
    cons = consensus_report.consensus
    assert cons["replicas"] == 3
    # one election per partition that hit the leader, plus boot
    assert cons["elections"] >= 3
    assert cons["lease_handoffs"] >= 2
    assert cons["log_length"] > 0
    # failover bound: lease + election timeout + stagger, per regime
    for regime in cons["regimes"][1:]:
        assert regime["stalled_s"] <= 4.0
    assert cons["minority_stall_s"] <= 8.0
    # availability held through both failovers
    assert consensus_report.overall_yield >= 0.99


def test_both_backends_render_their_sections(soft_report,
                                             consensus_report):
    soft_text = soft_report.render()
    assert "partition  backend=soft" in soft_text
    assert "consensus" not in soft_text.split("faults")[0].split(
        "partition")[0]  # no consensus section without the group
    cons_text = consensus_report.render()
    assert "partition  backend=consensus" in cons_text
    assert "wrong-decisions 0" in cons_text
    assert "regime b" in cons_text


def test_partition_smoke_batch_byte_identical_across_jobs():
    serial = run_campaign_batch("partition-smoke", master_seed=1997,
                                runs=2, jobs=1,
                                overrides={"manager_backend": "consensus"})
    fanned = run_campaign_batch("partition-smoke", master_seed=1997,
                                runs=2, jobs=2,
                                overrides={"manager_backend": "consensus"})
    assert serial.render(verbose=True) == fanned.render(verbose=True)
    assert serial.ok


def test_shard_override_reaches_the_fabric():
    report = run_campaign_shard("partition-smoke", 1997,
                                {"manager_backend": "consensus"})
    assert report.partition["backend"] == "consensus"
    assert report.consensus["replicas"] == 3
    assert report.partition["wrong_decisions"] == 0


def test_cli_runs_partition_smoke_with_backend_flag(capsys):
    code = main(["chaos", "partition-smoke",
                 "--manager-backend", "consensus", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "backend=consensus" in out
    assert "wrong-decisions 0" in out
