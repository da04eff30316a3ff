"""The state seam between the one manager core and its two backends.

`Manager` owns the only beacon builder, policy tick and register /
locate / expire / reap code; `ManagerReplica` may answer only the seam
(authority from its lease, membership facts into its Paxos log).  The
shape is pinned by introspection, the replica's side of the seam by
behaviour: every way a worker leaves the live table becomes exactly one
committed expiry, and a leader without a lease does nothing.
"""

from repro.consensus.replica import ManagerReplica
from repro.core.manager import Manager
from tests.core.conftest import fast_config, make_fabric

SEAM = {"lease_until", "_monitor_extra", "_may_act", "_member_joined",
        "_members_departed", "_expire_unseen_members", "_build_adverts"}


def test_replica_redefines_only_the_seam_and_its_life_cycle():
    shared = {name for name in vars(ManagerReplica)
              if name in vars(Manager) and not name.startswith("__")}
    assert shared <= SEAM | {"_start_processes", "_on_crash"}, \
        sorted(shared - SEAM)
    assert SEAM <= set(vars(Manager))


def boot(workers=2, **overrides):
    # reaping off unless a test asks for it
    overrides.setdefault("reap_after_s", 100_000.0)
    fabric = make_fabric(n_nodes=10, seed=7,
                         config=fast_config(manager_backend="consensus",
                                            **overrides))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": workers})
    fabric.cluster.run(until=4.0)
    leader = fabric.manager_group.leader
    assert set(leader.member_workers) == set(fabric.workers)
    return fabric, leader


def run_for(fabric, seconds):
    fabric.cluster.run(until=fabric.cluster.env.now + seconds)


def membership_entries(replica, name):
    """Kinds of the committed entries about one worker, in log order."""
    chosen = replica.learner_log.chosen
    return [chosen[slot][1][0] for slot in sorted(chosen)
            if chosen[slot][1][0] in ("reg", "exp")
            and chosen[slot][1][1] == name]


def assert_expired_exactly_once(fabric, name):
    for replica in fabric.manager_group.replicas:
        assert membership_entries(replica, name) == ["reg", "exp"], \
            replica.name
        assert name not in replica.member_workers


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
    for replica in fabric.manager_group.replicas:
        assert membership_entries(replica, victim.name) \
            == ["reg", "exp", "reg"], replica.name
        assert victim.name in replica.member_workers


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
    assert leader.alive and not leader.is_active_leader()
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
