"""Tests for the process-pair manager (the Section 3.1.3 prototype
design) and its comparison against soft-state recovery."""

import hashlib

import pytest

from repro.core.process_pair import Mirror, SecondaryManager
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from tests.core.conftest import fast_config, make_fabric, make_record


def boot_pair(fabric, workers=2):
    fabric.start_manager(process_pair=True)
    fabric.start_monitor(node=fabric.manager.node)
    fabric.start_frontend()
    for _ in range(workers):
        fabric.spawn_worker("test-worker")
    fabric.cluster.run(until=2.0)
    return fabric


def test_secondary_mirrors_primary_state(fabric):
    boot_pair(fabric)
    fabric.cluster.run(until=5.0)
    secondary = fabric.secondary
    mirror = fabric.manager.replication
    assert isinstance(mirror, Mirror)
    assert isinstance(secondary, SecondaryManager)
    assert secondary.snapshots_received >= 5
    assert set(secondary.mirror) == set(fabric.manager.workers)
    assert mirror.mirror_messages >= 5
    assert mirror.mirror_bytes > 0


def test_secondary_takes_over_on_primary_crash(fabric):
    boot_pair(fabric)
    old = fabric.manager
    old_incarnation = old.incarnation
    old.kill()
    # promotion detection: 3 beacon intervals = 1.5 s, well before the
    # FE watchdog's 3 s tolerance
    fabric.cluster.run(until=fabric.cluster.env.now + 2.5)
    assert fabric.manager is not old
    assert fabric.manager.alive
    assert fabric.manager.incarnation > old_incarnation
    assert fabric.secondary.alive       # a fresh standby re-paired
    assert fabric.secondary is not None
    # takeover inherited the worker table (before any re-registration
    # could possibly have completed, the new manager already knows them)
    assert len(fabric.manager.workers) == 2


def test_workers_reconnect_to_promoted_manager(fabric):
    boot_pair(fabric)
    fabric.manager.kill()
    fabric.cluster.run(until=fabric.cluster.env.now + 10.0)
    # seeded entries replaced by live registrations: reports flow again
    assert fabric.manager.reports_received > 0
    for info in fabric.manager.workers.values():
        assert info.endpoint is not None


def test_seeded_entries_for_dead_workers_expire(fabric):
    boot_pair(fabric)
    # kill a worker and the primary in the same instant: the mirror
    # still lists the dead worker, so the takeover manager initially
    # believes in it — the timeout detector must clean it up
    victim = fabric.alive_workers()[0]
    victim.kill()
    fabric.manager.kill()
    fabric.cluster.run(until=fabric.cluster.env.now + 15.0)
    assert victim.name not in fabric.manager.workers
    survivors = fabric.alive_workers("test-worker")
    assert {info.name for info in fabric.manager.workers.values()} == \
        {stub.name for stub in survivors}


def outage_run(process_pair, seed=31, rate_rps=0.0):
    """A manager crash at t=4 s, run to t=30 s; with ``rate_rps`` a
    request stream rides through the takeover.  Returns the fabric and
    the playback engine."""
    fabric = make_fabric(n_nodes=10, seed=seed)
    fabric.start_manager(process_pair=process_pair)
    fabric.start_monitor()
    fabric.start_frontend()
    fabric.spawn_worker("test-worker")
    env = fabric.cluster.env
    engine = PlaybackEngine(
        env, fabric.submit, rng=RandomStreams(seed).stream("pp-pin"),
        timeout_s=10.0)
    if rate_rps:
        env.process(engine.constant_rate(
            rate_rps, 20.0, [make_record(i) for i in range(20)]))
    fabric.cluster.run(until=4.0)
    fabric.manager.kill()
    fabric.cluster.run(until=30.0)
    return fabric, engine


def beacon_outage(process_pair, seed=31):
    """Measure the beacon gap around a manager crash."""
    fabric, _ = outage_run(process_pair, seed)
    # monitor heard beacons; find the largest gap after the kill
    times = [time for time, _ in fabric.monitor.worker_counts
             if time > 3.0]
    gaps = [b - a for a, b in zip(times, times[1:])]
    return max(gaps) if gaps else float("inf")


def test_process_pair_recovers_faster_than_soft_state():
    """The prototype's one genuine advantage, quantified: a shorter
    beacon outage.  (The paper's point is that soft state's outage is
    already short enough — and the code is far simpler.)"""
    soft_gap = beacon_outage(process_pair=False)
    pair_gap = beacon_outage(process_pair=True)
    assert pair_gap < soft_gap
    assert pair_gap < 4.0
    assert soft_gap < 10.0  # soft state is no disaster either


def test_mirroring_costs_continuous_messages(fabric):
    """The prototype's running cost: one mirror snapshot per beacon,
    forever, crash or no crash."""
    boot_pair(fabric)
    fabric.cluster.run(until=20.0)
    mirror = fabric.manager.replication
    expected = 20.0 / fabric.config.beacon_interval_s
    assert mirror.mirror_messages == pytest.approx(expected, rel=0.2)


def outage_digest(process_pair, seed):
    """sha256 over what a manager crash and its recovery leave behind:
    the final event sequence number, every beacon the monitor heard
    (times as ``float.hex``), the mirror's traffic, the restarts and
    the completed requests of a 5 req/s stream."""
    fabric, engine = outage_run(process_pair, seed, rate_rps=5.0)
    replication, secondary = fabric.manager.replication, fabric.secondary
    mirror = (replication.mirror_messages, replication.mirror_bytes,
              secondary.snapshots_received) if process_pair else None
    fields = (
        fabric.cluster.env._seq,
        [(time.hex(), count) for time, count
         in fabric.monitor.worker_counts],
        mirror,
        fabric.manager_restarts,
        len(engine.completed()),
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


#: recorded before the three manager designs became one class with
#: three replication strategies; a change that moves one of these moved
#: the process pair's or soft state's recovery trajectory.
OUTAGE_DIGESTS = {
    (False, 31):
        "b069d37e3670c643f210c9e93c3a4420083487aafe985c0fd13a345cf2575dea",
    (False, 1997):
        "de7df486569ecb9a49996452e32bd7e3ba406f3d79b08587fef477ad29b4d80f",
    (True, 31):
        "013cf9f4dd0fcd1733a24c442aaa253f69b298ab720aae74cc47f49e4ff71556",
    (True, 1997):
        "77ba5a1e9f9e93e0e6995839bc6b92ab066ec212631e700046621619244d3645",
}


@pytest.mark.parametrize("process_pair, seed", sorted(OUTAGE_DIGESTS))
def test_outage_trajectory_is_pinned(process_pair, seed):
    assert outage_digest(process_pair, seed) == \
        OUTAGE_DIGESTS[process_pair, seed]
