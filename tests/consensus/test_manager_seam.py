"""One manager class, three replication strategies.

`Manager` owns the only beacon builder, policy tick and register /
locate / expire / reap code; a strategy answers `may_act()` (authority:
aliveness, or a Paxos lease) and `submit(op)` (membership facts: dropped,
mirrored, or proposed to a Paxos log).  The shape is pinned by
structure, the Paxos strategy by behaviour: every way a worker leaves
the live table becomes exactly one committed expiry, and a leader
without a lease does nothing.
"""

import repro.consensus
import repro.core.process_pair
from repro.consensus.replica import Paxos
from repro.core.manager import Local, Manager
from repro.core.process_pair import Mirror
from tests.core.conftest import fast_config, make_fabric

#: the hooks `Manager` carried for its subclasses before the strategies
OLD_SEAM = ("_may_act", "_member_joined", "_members_departed",
            "_expire_unseen_members")


def test_nothing_subclasses_the_manager():
    # the imports above load every module that used to subclass it
    assert repro.consensus.Paxos is Paxos
    assert repro.core.process_pair.Mirror is Mirror
    assert Manager.__subclasses__() == []


def test_the_manager_defines_none_of_the_old_seam():
    assert [name for name in OLD_SEAM if hasattr(Manager, name)] == []


def test_each_strategy_answers_may_act_and_submit():
    for strategy in (Local, Mirror, Paxos):
        assert callable(strategy.may_act) and callable(strategy.submit), \
            strategy.__name__


def boot(workers=2, **overrides):
    # reaping off unless a test asks for it
    overrides.setdefault("reap_after_s", 100_000.0)
    fabric = make_fabric(n_nodes=10, seed=7,
                         config=fast_config(manager_backend="consensus",
                                            **overrides))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": workers})
    fabric.cluster.run(until=4.0)
    leader = fabric.consensus.leader
    assert set(leader.replication.member_workers) == set(fabric.workers)
    return fabric, leader


def run_for(fabric, seconds):
    fabric.cluster.run(until=fabric.cluster.env.now + seconds)


def membership_entries(replica, name):
    """Kinds of the committed entries about one worker, in log order."""
    chosen = replica.replication.learner_log.chosen
    return [chosen[slot][1][0] for slot in sorted(chosen)
            if chosen[slot][1][0] in ("reg", "exp")
            and chosen[slot][1][1] == name]


def assert_expired_exactly_once(fabric, name):
    for replica in fabric.consensus.replicas:
        assert membership_entries(replica, name) == ["reg", "exp"], \
            replica.name
        assert name not in replica.replication.member_workers


def test_killed_worker_is_one_committed_expiry():
    fabric, leader = boot()
    victim = fabric.workers["test-worker.1"]
    victim.kill()
    run_for(fabric, 3.0)
    assert victim.name not in leader.workers
    assert_expired_exactly_once(fabric, victim.name)


def test_silent_worker_is_one_committed_expiry():
    """Reports stop but the connection holds (a one-way SAN fault): the
    timeout detector expires the worker, and that too is one entry."""
    fabric, leader = boot()
    victim = fabric.workers["test-worker.1"]
    assert victim.node is not leader.node
    detected = leader.worker_failures_detected
    fabric.cluster.network.partitions.one_way(
        victim.node.name, leader.node.name, duration_s=5.0)
    run_for(fabric, 8.0)
    assert leader.worker_failures_detected == detected + 1
    # the stub re-registers off the very next beacon, and the link
    # heals before its silence is old enough again: one expiry between
    # two registrations, on every replica
    assert victim.alive and victim.name in leader.workers
    for replica in fabric.consensus.replicas:
        assert membership_entries(replica, victim.name) \
            == ["reg", "exp", "reg"], replica.name
        assert victim.name in replica.replication.member_workers


def test_reaped_worker_is_one_committed_expiry():
    fabric, leader = boot(reap_after_s=5.0)
    run_for(fabric, 6.0)
    assert leader.reaps == 1
    (reaped,) = set(fabric.workers) - set(leader.workers)
    assert_expired_exactly_once(fabric, reaped)


def test_leader_without_a_lease_neither_beacons_nor_acts():
    fabric, leader = boot()
    fabric.cluster.network.partitions.split(
        {leader.node.name: "isolated"}, duration_s=20.0)
    run_for(fabric, 4.0)   # past consensus_lease_s: the lease lapsed
    assert leader.alive and not leader.replication.may_act()
    # the live table would make an acting manager both spawn (one
    # worker far over the threshold) and expire (one long silent)
    busy, silent = leader.workers.values()
    busy.queue_avg = 100.0
    silent.last_report_at = float("-inf")
    before = (leader.beacons_sent, leader.spawns, leader.reaps,
              leader.worker_failures_detected, len(leader.workers))
    leader._publish_beacon()
    leader._policy_tick()
    run_for(fabric, 2.0)
    assert (leader.beacons_sent, leader.spawns, leader.reaps,
            leader.worker_failures_detected,
            len(leader.workers)) == before
    assert leader.request_worker("test-worker") is None
