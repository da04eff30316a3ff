"""The consensus-replicated manager on the sim fabric.

Three manager replicas run a multi-Paxos log whose entries are worker
membership and load-table snapshots; the leader holds a majority lease
and is the only replica that beacons, accepts registrations, or hands
out dispatch hints.  These tests cover the election on boot, the
leader-only surface, failover when the leader dies or is partitioned
away, and the lease-bounded hint contract the manager stubs rely on.
"""

import pytest

from repro.core.fabric import FabricError
from tests.core.conftest import fast_config, make_fabric


def consensus_fabric(n_nodes=10, seed=7, **overrides):
    return make_fabric(n_nodes=n_nodes, seed=seed,
                       config=fast_config(manager_backend="consensus",
                                          **overrides))


def test_boot_elects_a_leader_and_registers_workers():
    fabric = consensus_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=4.0)
    group = fabric.consensus
    assert group is not None and len(group.replicas) == 3
    leader = group.leader
    assert leader is not None and leader.replication.may_act()
    # the fabric's manager handle tracks the leader for monitors/tools
    assert fabric.manager is leader
    # workers registered with the leader and entered the replicated log
    assert len(leader.workers) == 2
    assert set(leader.replication.member_workers) == set(leader.workers)
    stats = group.stats()
    assert stats["replicas"] == 3
    assert stats["elections"] >= 1
    assert stats["log_length"] > 0


def test_replicas_on_distinct_nodes_and_backend_guards():
    fabric = consensus_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    nodes = {replica.node.name
             for replica in fabric.consensus.replicas}
    assert len(nodes) == 3  # no two replicas share a failure domain
    with pytest.raises(FabricError):
        fabric.start_manager()  # one replica group per fabric
    # three replicas need three up dedicated nodes
    small = consensus_fabric(n_nodes=2)
    with pytest.raises(FabricError):
        small.start_manager()


def test_followers_refuse_the_leader_surface():
    fabric = consensus_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=4.0)
    group = fabric.consensus
    followers = [replica for replica in group.replicas
                 if replica.alive and not replica.replication.may_act()]
    assert followers
    for follower in followers:
        assert follower.request_worker("test-worker") is None


def test_leader_crash_fails_over_and_replica_restarts():
    fabric = consensus_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=4.0)
    group = fabric.consensus
    first = group.leader
    first.kill()
    fabric.cluster.run(until=12.0)
    second = group.leader
    assert second is not None and second is not first
    assert second.replication.may_act()
    # the new regime carries the committed membership forward: its
    # beacons re-attract the workers without losing the pool
    assert len(second.workers) == 2
    # the group supervisor restarted the dead replica as a follower
    assert [replica.alive for replica in group.replicas] == [True] * 3
    assert group.stats()["elections"] >= 2
    assert group.safety_violations() == []


def test_partitioned_leader_loses_lease_not_split_brain():
    """Both sides alive across a partition: the majority elects a new
    leader, the minority's lease lapses, and at no sampled instant do
    two replicas both hold an active lease."""
    fabric = consensus_fabric(n_nodes=12)
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=3.0)
    group = fabric.consensus
    first = group.leader
    partitions = fabric.cluster.install_partitions()
    partitions.split({first.node.name: "isolated"}, duration_s=15.0)
    for step in range(40):  # sample every 0.5s through fault and heal
        fabric.cluster.run(until=3.5 + 0.5 * step)
        active = [replica for replica in group.replicas
                  if replica.replication.may_act()]
        assert len(active) <= 1, f"two leaders at {fabric.cluster.env.now}"
    assert group.leader is not first  # the majority moved on
    assert first.alive  # the old leader was never killed, only fenced
    assert group.safety_violations() == []


def test_beacons_carry_the_lease_and_stubs_honor_it():
    fabric = consensus_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=4.0)
    frontend = fabric.alive_frontends()[0]
    stub = frontend.stub
    now = fabric.cluster.env.now
    assert stub.lease_until is not None and stub.lease_until > now
    assert stub.hints_usable(now)
    # past the lease bound the stub must stall rather than guess
    assert not stub.hints_usable(stub.lease_until + 0.001)
    before = stub.lease_stalls
    leader = fabric.consensus.leader
    leader.kill()
    fabric.cluster.run(until=now + 2.0)  # inside the old lease window
    record_pick = stub.pick("test-worker")
    # either a new lease arrived already or the pick stalled; both are
    # lease-safe — what must never happen is routing on a lapsed lease
    if record_pick is None:
        assert stub.lease_stalls >= before
    fabric.cluster.run(until=now + 12.0)
    assert fabric.consensus.leader is not None
    assert stub.lease_until is not None


def test_tick_entries_replicate_the_load_table():
    fabric = consensus_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=6.0)
    group = fabric.consensus
    leader = group.leader
    followers = [replica for replica in group.replicas
                 if replica.alive and replica is not leader]
    assert leader.replication.load_table  # ticked queue-state snapshots
    for follower in followers:
        assert set(follower.replication.member_workers) \
            == set(leader.replication.member_workers)
