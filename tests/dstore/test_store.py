"""Quorum coordinator semantics: replication, degraded commits,
tombstones, zombie freshness, and the committed-cells oracle, with the
front's transaction semantics checked again over this backend (they are
tested over both backends in tests/tacc/test_customization.py)."""

import pytest

from repro.dstore import (
    BrickCluster,
    QuorumCoordinator,
    QuorumError,
    ReadUnavailable,
    TOMBSTONE,
)
from repro.sim.cluster import Cluster
from repro.tacc.customization import ProfileStore, TransactionError


def make_store(n_bricks=3, replicas=2, seed=11, validator=None):
    cluster = Cluster(seed=seed)
    bricks = BrickCluster(cluster, n_bricks=n_bricks,
                          replicas=replicas).boot()
    store = ProfileStore(validator=validator,
                         backend=QuorumCoordinator(bricks))
    return cluster, bricks, store


def user_on_slots(partitioner, slots):
    """A user id whose replica group is exactly ``slots``."""
    for index in range(10_000):
        user = f"user{index}"
        if partitioner.slots_of(partitioner.partition_of(user)) \
                == list(slots):
            return user
    raise AssertionError(f"no user found for slots {slots}")


def test_set_get_roundtrip_and_copy():
    _, _, store = make_store()
    store.set("client0", "quality", 60)
    assert store.get("client0") == {"quality": 60}
    profile = store.get("client0")
    profile["quality"] = 1  # mutating the copy must not leak back
    assert store.get_value("client0", "quality") == 60
    assert store.get_value("client0", "missing", "fallback") == "fallback"
    assert store.get("nobody") == {}


def test_write_lands_on_every_replica():
    _, bricks, store = make_store()
    store.set("client0", "scale", 0.5)
    partition = store.backend.partitioner.partition_of("client0")
    replicas = [bricks.brick_at(slot)
                for slot in store.backend.partitioner.slots_of(partition)]
    assert len(replicas) == 2
    for brick in replicas:
        cells = brick.read_user(partition, "client0")
        assert cells is not None and cells["scale"][1] == 0.5


def test_transaction_batches_and_single_writer():
    _, _, store = make_store()
    with store.begin() as tx:
        tx.set("client0", "quality", 10)
        tx.set("client1", "quality", 20)
    assert store.get_value("client0", "quality") == 10
    assert store.get_value("client1", "quality") == 20
    assert store.commits == 1
    open_tx = store.begin()
    with pytest.raises(TransactionError):
        store.begin()
    open_tx.abort()


def test_abort_commits_nothing():
    _, _, store = make_store()
    try:
        with store.begin() as tx:
            tx.set("client0", "quality", 99)
            raise RuntimeError("client bailed")
    except RuntimeError:
        pass
    assert store.get("client0") == {}
    assert store.backend.committed == {}
    assert store.aborts == 1


def test_non_json_value_rejected():
    _, _, store = make_store()
    with pytest.raises(TransactionError):
        store.set("client0", "bad", object())
    assert store.backend.committed == {}


def test_validator_hook_runs():
    def validator(user_id, key, value):
        if key == "forbidden":
            raise TransactionError("nope")
    _, _, store = make_store(validator=validator)
    store.set("client0", "fine", 1)
    with pytest.raises(TransactionError):
        store.set("client0", "forbidden", 1)


def test_delete_is_versioned_tombstone():
    _, _, store = make_store()
    store.set("client0", "quality", 60)
    store.delete("client0", "quality")
    assert store.get("client0") == {}
    assert store.get_value("client0", "quality", "gone") == "gone"
    assert "client0" not in store
    assert store.users() == []
    # the tombstone itself is committed state (it must win merges)
    cell = store.backend.committed[("client0", "quality")]
    assert cell[1] == TOMBSTONE


def test_one_dead_replica_degrades_but_commits():
    _, bricks, store = make_store()
    user = user_on_slots(store.backend.partitioner, [0, 1])
    bricks.brick_at(1).kill()
    store.set(user, "quality", 42)
    assert store.backend.degraded_writes == 1
    assert store.get_value(user, "quality") == 42
    assert store.backend.verify_committed() == []


def test_all_replicas_dead_fails_write_and_read():
    _, bricks, store = make_store()
    user = user_on_slots(store.backend.partitioner, [0, 1])
    store.set(user, "quality", 1)
    bricks.brick_at(0).kill()
    bricks.brick_at(1).kill()
    with pytest.raises(QuorumError):
        store.set(user, "quality", 2)
    assert store.backend.failed_writes == 1
    with pytest.raises(ReadUnavailable):
        store.get(user)
    assert store.backend.unavailable_reads == 1
    # the context-manager abort path after a QuorumError must not
    # raise "abort of a non-current transaction"
    assert store._open_tx is None


def test_zombie_replica_cannot_serve_stale_reads():
    cluster, bricks, store = make_store()
    user = user_on_slots(store.backend.partitioner, [0, 1])
    store.set(user, "quality", 10)
    zombie = bricks.brick_at(0)
    zombie.gray.zombify(cluster.env.now)
    # the zombie acks the write and drops it; the healthy peer holds
    # the only real copy — read-all max-version merge finds it
    store.set(user, "quality", 20)
    assert store.get_value(user, "quality") == 20
    assert zombie.gray.dropped > 0
    assert store.backend.verify_committed() == []


def test_read_repair_does_not_launder_zombie_staleness():
    cluster, bricks, store = make_store()
    user = user_on_slots(store.backend.partitioner, [0, 1])
    partition = store.backend.partitioner.partition_of(user)
    store.set(user, "quality", 10)
    zombie = bricks.brick_at(0)
    zombie.gray.zombify(cluster.env.now)
    store.set(user, "quality", 20)
    store.get(user)  # triggers read-repair toward the stale zombie
    cells = zombie.cells[partition].get(user, {})
    assert cells.get("quality", (0, None))[1] != 20


def test_stale_write_never_resurrects():
    _, bricks, store = make_store()
    user = user_on_slots(store.backend.partitioner, [0, 1])
    partition = store.backend.partitioner.partition_of(user)
    store.set(user, "quality", 30)
    version = store.backend.committed[(user, "quality")][0]
    # a delayed lower-version write arrives late at one replica
    brick = bricks.brick_at(0)
    brick.put_cells(partition, user, [("quality", version - 1, 999)])
    assert store.get_value(user, "quality") == 30


def test_unresponsive_replica_charged_as_timeout():
    from repro.dstore.store import BRICK_TIMEOUT_S
    cluster, bricks, store = make_store()
    user = user_on_slots(store.backend.partitioner, [0, 1])
    store.set(user, "quality", 5)
    bricks.brick_at(1).gray.hang(cluster.env.now)
    store.get(user)
    assert store.backend.last_op_cost_s >= BRICK_TIMEOUT_S


def test_write_quorum_bounds():
    """A write needs every replica's ack (the degraded-write rule aside):
    the quorum is the replication factor, not a setting."""
    _, bricks, store = make_store()
    with pytest.raises(TypeError, match="write_quorum"):
        QuorumCoordinator(bricks, write_quorum=1)
    assert store.stats()["write_quorum"] == bricks.replicas == 2


def test_stats_shape():
    _, _, store = make_store()
    store.set("client0", "quality", 1)
    store.get("client0")
    stats = store.stats()
    assert stats["committed_cells"] == 1
    assert stats["commits"] == 1
    assert stats["quorum_reads"] == 1
    assert stats["failed_writes"] == 0
