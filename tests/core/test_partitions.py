"""Tests for SAN-partition faults (Section 2.2.4).

"If the condition that caused the timeout can be automatically resolved
(e.g., if workers lost because of a SAN partition can be restarted on
still-visible nodes), the manager performs the necessary actions."
"""

import pytest

from repro.chaos.campaign import Faults, PartitionWorker
from repro.core.config import BEACON_LOSS_TOLERANCE
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from tests.core.conftest import fast_config, make_fabric, make_record


def test_partitioned_worker_is_unreachable_then_returns(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    victim = fabric.alive_workers()[0]
    victim.partition(10.0)
    assert victim.is_partitioned
    assert victim.alive  # alive, just unreachable
    fabric.cluster.run(until=4.0)
    # the manager saw the broken connection and dropped it
    assert victim.name not in fabric.manager.workers
    # after the heal, the worker re-registers off the next beacon
    fabric.cluster.run(until=20.0)
    assert not victim.is_partitioned
    assert victim.name in fabric.manager.workers


def test_manager_replaces_partitioned_worker_under_load():
    """The paper's scenario: load continues, the manager restarts the
    lost class on still-visible nodes."""
    fabric = make_fabric(n_nodes=10,
                         config=fast_config(spawn_damping_s=3.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    engine = PlaybackEngine(
        fabric.cluster.env, fabric.submit,
        rng=RandomStreams(9).stream("pb"), timeout_s=20.0)
    pool = [make_record(i) for i in range(20)]
    fabric.cluster.env.process(engine.constant_rate(15.0, 40.0, pool))
    victim = fabric.alive_workers()[0]
    faults = Faults(fabric)
    faults.arm((PartitionWorker(at=10.0, duration_s=20.0),))
    fabric.cluster.run(until=60.0)
    assert [(record.kind, record.target) for record in faults.timeline] \
        == [("partition", victim.name)]
    # a replacement was spawned on a reachable node during the partition
    assert fabric.manager.spawns >= 1
    # service availability held
    assert len(engine.completed()) > 0.9 * len(engine.outcomes)
    # after healing, both the victim and its replacement are registered
    names = set(fabric.manager.workers)
    assert victim.name in names
    assert len(names) >= 2


def test_requests_to_partitioned_worker_time_out(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    victim = fabric.alive_workers()[0]
    served_before = victim.served
    victim.partition(30.0)
    reply = fabric.submit(make_record())
    response = fabric.cluster.env.run(until=reply)
    # the FE retried / fell back; the partitioned worker served nothing
    assert victim.served == served_before
    assert response is not None


def _reregistration_delay(fabric, victim, heal_at, budget_s):
    """Run until the victim is back in the manager's view; return the
    delay past ``heal_at`` (fails the test if the budget expires)."""
    env = fabric.cluster.env
    interval = fabric.config.beacon_interval_s
    while env.now < heal_at + budget_s:
        fabric.cluster.run(until=env.now + interval)
        if victim.name in fabric.manager.workers:
            return env.now - heal_at
    pytest.fail(
        f"{victim.name} not re-registered within {budget_s}s of heal")


def test_heal_reregisters_within_beacon_loss_tolerance(fabric):
    """Soft state's promise, quantified: after a partition heals the
    worker must be back in the manager's view within
    ``BEACON_LOSS_TOLERANCE`` beacon periods."""
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    victim = fabric.alive_workers()[0]
    victim.partition(6.0)
    heal_at = fabric.cluster.env.now + 6.0
    fabric.cluster.run(until=4.0)
    assert victim.name not in fabric.manager.workers
    budget = (BEACON_LOSS_TOLERANCE
              * fabric.config.beacon_interval_s)
    delay = _reregistration_delay(fabric, victim, heal_at, budget)
    assert delay <= budget


def test_heal_reregisters_under_lossy_multicast(fabric):
    """Same bound with the lossy-SAN fault model dropping 30% of
    beacons across the heal: re-registration rides the first beacon
    that survives, still inside the tolerance window."""
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    faults = fabric.cluster.network.install_faults(
        fabric.cluster.streams.stream("test:netfaults"))
    victim = fabric.alive_workers()[0]
    victim.partition(6.0)
    heal_at = fabric.cluster.env.now + 6.0
    from repro.core.messages import BEACON_GROUP
    faults.impose(scope=BEACON_GROUP, loss=0.3,
                  start=heal_at - 2.0, duration_s=10.0)
    fabric.cluster.run(until=4.0)
    assert victim.name not in fabric.manager.workers
    budget = (BEACON_LOSS_TOLERANCE
              * fabric.config.beacon_interval_s)
    delay = _reregistration_delay(fabric, victim, heal_at, budget)
    assert delay <= budget
    assert faults.datagrams_lost > 0  # the window really dropped beacons


def test_partition_extends_not_shrinks(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    victim = fabric.alive_workers()[0]
    victim.partition(30.0)
    victim.partition(5.0)  # shorter request must not shorten the cut
    fabric.cluster.run(until=10.0)
    assert victim.is_partitioned
