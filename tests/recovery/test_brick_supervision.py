"""Supervisor coverage for profile bricks: the dead-brick scan, gray
detection via the write-read probe canary, restart-in-place to the same
slot, and heal = fully-authoritative-again."""

import pytest

from repro.chaos.campaign import chaos_config
from repro.dstore.cluster import BRICK_SPAWN_S
from repro.experiments._harness import build_bench_fabric
from repro.recovery.ledger import RecoveryLedger
from repro.recovery.policy import RecoveryPolicy


def boot_supervised_dstore(seed=7, policy=None):
    fabric = build_bench_fabric(n_nodes=8, seed=seed,
                                config=chaos_config(
                                    profile_backend="dstore"))
    ledger = RecoveryLedger(fabric.cluster.env)
    fabric.boot(n_frontends=1, initial_workers={"jpeg-distiller": 2})
    supervisor = fabric.start_supervisor(policy or RecoveryPolicy(),
                                         ledger=ledger)
    fabric.cluster.run(until=2.0)
    return fabric, supervisor, ledger


def run_for(fabric, seconds):
    env = fabric.cluster.env
    fabric.cluster.run(until=env.now + seconds)


def seed_profiles(fabric, count=12):
    store = fabric.profile_store
    for index in range(count):
        store.set(f"client{index}", "quality", 10 + index)
    return store


def test_dead_brick_noticed_and_respawned_to_same_slot():
    fabric, supervisor, ledger = boot_supervised_dstore()
    store = seed_profiles(fabric)
    victim = fabric.profile_bricks.brick_at(0)
    ledger.inject("brick-kill", victim.name)
    victim.kill()
    run_for(fabric, 15.0)
    replacement = fabric.profile_bricks.brick_at(0)
    assert replacement is not victim
    assert replacement.alive and replacement.slot == 0
    assert replacement.fully_authoritative
    case = ledger.cases[0]
    assert case.detector == "brick-dead"
    assert case.healed and case.heal_action == "brick-restart"
    assert case.replacement == replacement.name
    assert supervisor.restarts >= 1
    assert store.backend.verify_committed() == []


def test_rejoin_record_reaches_attached_ledger():
    """The supervisor notes each brick rejoin in its own ledger, and
    the note is the brick cluster's live record: ``sync_s`` arrives in
    place when the anti-entropy sweep finishes."""
    fabric, supervisor, ledger = boot_supervised_dstore()
    seed_profiles(fabric, 5)
    fabric.profile_bricks.brick_at(0).kill()
    run_for(fabric, 15.0)
    assert len(ledger.rejoins) == 1
    assert ledger.rejoins[0] is fabric.profile_bricks.rejoins[0]
    summary = ledger.summary(duration_s=20.0, population=3)
    assert summary["rejoins"] == 1
    assert summary["rejoin_mean_s"] == pytest.approx(BRICK_SPAWN_S)
    assert ledger.rejoins[0]["sync_s"] is not None


def test_zombie_brick_caught_by_probe_canary():
    fabric, supervisor, ledger = boot_supervised_dstore()
    seed_profiles(fabric)
    victim = fabric.profile_bricks.brick_at(1)
    ledger.inject("zombie", victim.name)
    victim.gray.zombify(fabric.cluster.env.now)
    run_for(fabric, 15.0)
    case = ledger.cases[0]
    # a zombie beacons fine; only the end-to-end write-read canary
    # sees output_ok=False, and corruption is a one-strike signal
    assert case.detector == "probe-validate"
    assert case.healed
    assert fabric.profile_bricks.brick_at(1).fully_authoritative


@pytest.mark.parametrize("mode", ["fail-slow", "hang"])
def test_slow_and_hung_bricks_caught_by_probe(mode):
    fabric, supervisor, ledger = boot_supervised_dstore()
    seed_profiles(fabric)
    victim = fabric.profile_bricks.brick_at(2)
    ledger.inject(mode, victim.name)
    if mode == "fail-slow":
        victim.gray.fail_slow(8.0, fabric.cluster.env.now)
    else:
        victim.gray.hang(fabric.cluster.env.now)
    run_for(fabric, 20.0)
    case = ledger.cases[0]
    assert case.detector == "probe"
    assert case.healed
    assert fabric.profile_bricks.brick_at(2).fully_authoritative


def test_heal_means_fully_authoritative_so_mttr_includes_sync():
    fabric, supervisor, ledger = boot_supervised_dstore()
    seed_profiles(fabric, count=30)
    victim = fabric.profile_bricks.brick_at(0)
    ledger.inject("brick-kill", victim.name)
    victim.kill()
    run_for(fabric, 15.0)
    case = ledger.cases[0]
    record = ledger.rejoins[0]
    # the brick served again after the constant fork, but the heal was
    # only recorded once anti-entropy finished
    assert case.mttr >= record["sync_s"] > record["rejoin_s"] > 0


def test_healthy_bricks_never_restarted():
    fabric, supervisor, ledger = boot_supervised_dstore()
    seed_profiles(fabric)
    run_for(fabric, 15.0)
    assert supervisor.restarts == 0
    assert ledger.false_alarms == []
    names = sorted(fabric.profile_bricks.population())
    assert names == ["brick0.1", "brick1.1", "brick2.1"]


# -- bricks go through the workers' executor: same guard rails -----------


def test_repeated_brick_restarts_back_off_but_never_quarantine():
    fabric, supervisor, ledger = boot_supervised_dstore()
    seed_profiles(fabric)
    node = fabric.profile_bricks.brick_at(0).node
    for _ in range(RecoveryPolicy().flap_threshold):
        fabric.profile_bricks.brick_at(0).kill()
        run_for(fabric, 8.0)   # well inside flap_window_s
    assert supervisor.restarts == 3
    # the 2nd and 3rd restarts on the node waited out the backoff
    assert supervisor.backoff_waits == 2
    # a worker's node would be quarantined by now; a brick has exactly
    # one home, so its node never is
    assert not node.quarantined and supervisor.quarantined_nodes == []
    replacement = fabric.profile_bricks.brick_at(0)
    assert replacement.alive and replacement.node is node
    assert replacement.fully_authoritative


def test_brick_restart_refused_and_paged_when_budget_is_spent():
    fabric, supervisor, ledger = boot_supervised_dstore(
        policy=RecoveryPolicy(restart_budget=1,
                              restart_budget_window_s=600.0))
    seed_profiles(fabric)
    fabric.profile_bricks.brick_at(0).kill()
    run_for(fabric, 8.0)
    assert supervisor.restarts == 1
    second = fabric.profile_bricks.brick_at(1)
    second.kill()
    run_for(fabric, 8.0)
    assert supervisor.restarts == 1 and supervisor.budget_denials >= 1
    assert any("restart budget exhausted" in alert.message
               and alert.component == second.name
               for alert in supervisor.pages())
    # left dead for the operator
    assert fabric.profile_bricks.brick_at(1) is second
    assert not second.alive
