"""The relaxed-reads ladder level on the replicated profile store:
R=1 reads that stop at the first authoritative replica, while writes
keep their quorum unconditionally."""

from types import SimpleNamespace

import pytest

from repro.dstore import (
    BRICK_SPAWN_S,
    BrickCluster,
    QuorumCoordinator,
    ReadUnavailable,
)
from repro.sim.cluster import Cluster
from repro.tacc.customization import ProfileStore


def make_store(n_bricks=3, replicas=2, seed=11):
    cluster = Cluster(seed=seed)
    bricks = BrickCluster(cluster, n_bricks=n_bricks,
                          replicas=replicas).boot()
    store = ProfileStore(backend=QuorumCoordinator(bricks))
    return cluster, bricks, store


def relax(store, active=True):
    store.backend.degradation = SimpleNamespace(relaxed_reads_active=active)


def respawn(cluster, bricks, slot):
    done = {}

    def runner():
        done["brick"] = yield from bricks.respawn(slot)
    cluster.env.process(runner())
    cluster.run(until=cluster.env.now + BRICK_SPAWN_S + 0.01)
    return done["brick"]


def test_relaxed_read_stops_at_the_first_authoritative_replica():
    _, _, store = make_store()
    store.set("client0", "quality", 60)
    relax(store)
    assert store.get("client0") == {"quality": 60}
    assert store.backend.relaxed_reads == 1
    assert store.backend.last_op_hops == 1  # one replica consulted, not two


def test_quorum_read_consults_every_replica_when_not_relaxed():
    _, _, store = make_store()
    store.set("client0", "quality", 60)
    relax(store, active=False)
    assert store.get("client0") == {"quality": 60}
    assert store.backend.relaxed_reads == 0
    assert store.backend.last_op_hops == 2


def test_relaxed_reads_skip_read_repair():
    """An amnesiac rejoined brick normally gets healed by the read
    path; at R=1 the read never even looks at it."""
    cluster, bricks, store = make_store()
    for index in range(8):
        store.set(f"user{index}", "quality", index)
    bricks.brick_at(0).kill()
    replacement = respawn(cluster, bricks, 0)
    user = next(f"user{index}" for index in range(8)
                if 0 in store.backend.partitioner.slots_of(
                    store.backend.partitioner.partition_of(f"user{index}")))
    partition = store.backend.partitioner.partition_of(user)
    relax(store)
    repairs_before = store.backend.read_repairs
    assert store.get_value(user, "quality") is not None
    assert store.backend.read_repairs == repairs_before
    assert replacement.read_user(partition, user) is None  # still amnesiac
    # back at full quorum, the same read heals it
    relax(store, active=False)
    store.get(user)
    assert replacement.read_user(partition, user) is not None


def test_writes_keep_their_quorum_under_relaxed_reads():
    """Degraded harvest, never degraded durability: the ladder level
    must not touch the write path."""
    _, bricks, store = make_store()
    relax(store)
    store.set("client0", "scale", 0.5)
    assert store.backend.degraded_writes == 0
    partition = store.backend.partitioner.partition_of("client0")
    replicas = [bricks.brick_at(slot)
                for slot in store.backend.partitioner.slots_of(partition)]
    assert len(replicas) == 2
    for brick in replicas:
        cells = brick.read_user(partition, "client0")
        assert cells is not None and cells["scale"][1] == 0.5


def test_relaxed_read_still_raises_when_no_replica_answers():
    """R=1 relaxes freshness, not existence: zero authoritative
    answers is still an unavailable read."""
    _, bricks, store = make_store()
    store.set("client0", "quality", 60)
    partition = store.backend.partitioner.partition_of("client0")
    for slot in store.backend.partitioner.slots_of(partition):
        bricks.brick_at(slot).kill()
    relax(store)
    with pytest.raises(ReadUnavailable):
        store.get("client0")
    assert store.backend.unavailable_reads == 1
