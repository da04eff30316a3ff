"""Cheap recovery: constant-time rejoin, amnesia handled by the
authority protocol, read-repair, anti-entropy, and total-loss
promotion (where the write-loss oracle must have teeth)."""

import pytest

from repro.dstore import (
    BRICK_SPAWN_S,
    BrickCluster,
    QuorumCoordinator,
)
from repro.sim.cluster import Cluster
from repro.tacc.customization import ProfileStore


def make_store(seed=11):
    cluster = Cluster(seed=seed)
    bricks = BrickCluster(cluster).boot()
    store = ProfileStore(backend=QuorumCoordinator(bricks))
    return cluster, bricks, store


def respawn(cluster, bricks, slot):
    done = {}

    def runner():
        done["brick"] = yield from bricks.respawn(slot)
    cluster.env.process(runner())
    cluster.run(until=cluster.env.now + BRICK_SPAWN_S + 0.01)
    return done["brick"]


def load_users(store, count, prefix="user"):
    for index in range(count):
        store.set(f"{prefix}{index}", "quality", index)
        store.set(f"{prefix}{index}", "scale", 0.5)


def test_restarted_brick_is_amnesiac_but_serving():
    cluster, bricks, store = make_store()
    load_users(store, 20)
    victim = bricks.brick_at(0)
    victim.kill()
    replacement = respawn(cluster, bricks, 0)
    assert replacement is not victim
    assert replacement.alive
    assert replacement.cell_count() == 0
    assert not replacement.fully_authoritative
    # recovering partitions answer reads "unknown", never false-absent
    partition = replacement.recovering_partitions[0]
    assert replacement.read_user(partition, "anyone") is None
    # but writes are accepted immediately (new versions are new data)
    assert replacement.put_cells(
        partition, "x", [("k", bricks.next_version(), 1)])


def test_reads_masked_by_peer_during_recovery():
    cluster, bricks, store = make_store()
    load_users(store, 20)
    bricks.brick_at(0).kill()
    respawn(cluster, bricks, 0)
    for index in range(20):
        assert store.get_value(f"user{index}", "quality") == index
    assert store.backend.verify_committed() == []


def test_read_repair_heals_hot_users_before_sweep():
    cluster, bricks, store = make_store()
    load_users(store, 8)
    bricks.brick_at(0).kill()
    replacement = respawn(cluster, bricks, 0)
    # pick a user hosted on the replacement, read it through the store
    user = next(f"user{index}" for index in range(8)
                if 0 in store.backend.partitioner.slots_of(
                    store.backend.partitioner.partition_of(f"user{index}")))
    partition = store.backend.partitioner.partition_of(user)
    assert replacement.read_user(partition, user) is None
    store.get(user)  # read-repair pushes the merged cells back
    assert replacement.read_user(partition, user) is not None
    assert store.backend.read_repairs > 0


def test_anti_entropy_completes_and_records_sync():
    cluster, bricks, store = make_store()
    load_users(store, 30)
    bricks.brick_at(0).kill()
    replacement = respawn(cluster, bricks, 0)
    cluster.run(until=cluster.env.now + 10.0)
    assert replacement.fully_authoritative
    assert bricks.partitions_synced > 0
    record = bricks.rejoins[-1]
    assert record["brick"] == replacement.name
    assert record["sync_s"] is not None and record["sync_s"] > 0
    assert store.backend.verify_committed() == []


def test_rejoin_time_independent_of_state_size():
    """The cheap-recovery claim itself: a brick that held 10x the data
    rejoins in exactly the same time — there is no log to replay."""
    cluster, bricks, store = make_store()
    load_users(store, 4, prefix="light")
    bricks.brick_at(0).kill()
    respawn(cluster, bricks, 0)
    cluster.run(until=cluster.env.now + 10.0)

    load_users(store, 200, prefix="heavy")
    bricks.brick_at(1).kill()
    respawn(cluster, bricks, 1)
    cluster.run(until=cluster.env.now + 10.0)

    light, heavy = bricks.rejoins[0], bricks.rejoins[1]
    assert heavy["cells_at_kill"] > 4 * light["cells_at_kill"]
    assert heavy["rejoin_s"] == pytest.approx(BRICK_SPAWN_S)
    assert light["rejoin_s"] == pytest.approx(BRICK_SPAWN_S)
    # recovery *work* still scales with data — it just happens in the
    # background, off the rejoin path
    assert heavy["sync_s"] > 0


def test_total_amnesia_promotes_and_oracle_reports_loss():
    """Kill every replica of the keyspace at once: the lowest live
    slot promotes empty partitions so reads come back, and the
    committed-write oracle reports exactly what that cost."""
    cluster, bricks, store = make_store()
    load_users(store, 10)
    committed = len(store.backend.committed)
    assert committed == 20
    for slot in range(bricks.n_bricks):
        bricks.brick_at(slot).kill()
    for slot in range(bricks.n_bricks):
        cluster.env.process(bricks.respawn(slot))
    cluster.run(until=cluster.env.now + 15.0)
    assert bricks.data_loss_promotions > 0
    for slot in range(bricks.n_bricks):
        assert bricks.brick_at(slot).fully_authoritative
    lost = store.backend.verify_committed()
    assert len(lost) == committed
    assert all(report["reason"] == "missing" for report in lost)
