"""Tests for the ACID profile store and its write-through cache.

The front's semantics (reads, transactions, validation) are checked on
both backends: each such test runs once per backend, on a fresh store
from :func:`stores`, and names the backend in its assertion messages.
(A loop, not ``parametrize``, so that every test keeps its one id.)
"""

import ast
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dstore import BrickCluster, QuorumCoordinator, QuorumError
from repro.dstore import store as store_module
from repro.sim.cluster import Cluster
from repro.tacc import customization
from repro.tacc.customization import (
    TOMBSTONE,
    ProfileStore,
    StoreCorrupt,
    TransactionError,
    WriteAheadLog,
    WriteThroughCache,
)


def brick_store(**kwargs):
    """A front over the ``dstore`` backend: three bricks, two replicas."""
    bricks = BrickCluster(Cluster(seed=11)).boot()
    return ProfileStore(backend=QuorumCoordinator(bricks), **kwargs)


BACKENDS = {"single": ProfileStore, "dstore": brick_store}


def stores(**kwargs):
    """``(backend, store)``: a fresh store on each backend."""
    return [(name, build(**kwargs)) for name, build in BACKENDS.items()]


# -- basic operations ---------------------------------------------------------

def test_set_get_roundtrip():
    for backend, store in stores():
        store.set("u1", "quality", 25)
        assert store.get_value("u1", "quality") == 25, backend
        assert store.get("u1") == {"quality": 25}, backend
        assert "u1" in store, backend
        assert store.users() == ["u1"], backend


def test_get_returns_copy():
    for backend, store in stores():
        store.set("u1", "k", 1)
        profile = store.get("u1")
        profile["k"] = 999
        assert store.get_value("u1", "k") == 1, backend


def test_delete_removes_key_and_empty_user():
    for backend, store in stores():
        store.set("u1", "k", 1)
        store.delete("u1", "k")
        assert "u1" not in store, backend
        assert store.get("u1") == {}, backend


def test_missing_values_use_default():
    for backend, store in stores():
        assert store.get_value("ghost", "k", "dflt") == "dflt", backend
        assert store.get("ghost") == {}, backend


# -- transactions -----------------------------------------------------------------

def test_transaction_commit_applies_all_writes():
    for backend, store in stores():
        with store.begin() as tx:
            tx.set("u1", "a", 1)
            tx.set("u1", "b", 2)
            tx.set("u2", "c", 3)
        assert store.get("u1") == {"a": 1, "b": 2}, backend
        assert store.get("u2") == {"c": 3}, backend
        assert store.commits == 1, backend


def test_transaction_abort_applies_nothing():
    for backend, store in stores():
        tx = store.begin()
        tx.set("u1", "a", 1)
        tx.abort()
        assert "u1" not in store, backend
        assert store.aborts == 1, backend


def test_exception_in_with_block_aborts():
    for backend, store in stores():
        with pytest.raises(RuntimeError):
            with store.begin() as tx:
                tx.set("u1", "a", 1)
                raise RuntimeError("service error")
        assert "u1" not in store, backend
        assert store.get("u1") == {}, backend
        assert store.aborts == 1, backend
        if backend == "dstore":
            assert store.backend.committed == {}


def test_read_your_writes_inside_transaction():
    for backend, store in stores():
        store.set("u1", "a", "old")
        tx = store.begin()
        tx.set("u1", "a", "new")
        assert tx.get("u1", "a") == "new", backend
        # not visible until commit
        assert store.get_value("u1", "a") == "old", backend
        tx.delete("u1", "a")
        assert tx.get("u1", "a", "gone") == "gone", backend
        tx.commit()
        assert store.get_value("u1", "a") is None, backend


def test_single_writer_isolation():
    for backend, store in stores():
        tx = store.begin()
        with pytest.raises(TransactionError):
            store.begin()
        tx.abort()
        store.begin().commit()  # usable again after abort


def test_transaction_unusable_after_commit():
    for backend, store in stores():
        tx = store.begin()
        tx.commit()
        with pytest.raises(TransactionError):
            tx.set("u", "k", 1)
        with pytest.raises(TransactionError):
            tx.commit()


def test_non_json_values_rejected():
    for backend, store in stores():
        with pytest.raises(TransactionError):
            store.set("u", "k", object())
        assert store.users() == [], backend
        if backend == "dstore":
            assert store.backend.committed == {}


def test_custom_validator_enforced():
    def validator(user, key, value):
        if key == "quality" and not 0 <= value <= 100:
            raise TransactionError("quality out of range")

    for backend, store in stores(validator=validator):
        store.set("u", "quality", 50)
        with pytest.raises(TransactionError):
            store.set("u", "quality", 500)
        assert store.get_value("u", "quality") == 50, backend


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_the_deletion_marker_is_not_a_value(backend):
    """Writing the marker used to count a commit and delete the key."""
    store = BACKENDS[backend]()
    store.set("u", "k", 1)
    with pytest.raises(TransactionError):
        store.set("u", "k", TOMBSTONE)
    with pytest.raises(TransactionError):
        store.set("fresh", "k", TOMBSTONE)
    assert store.commits == 1
    assert store.get_value("u", "k", "DEFAULT") == 1
    assert store.users() == ["u"]


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_a_commit_that_raises_inside_with_releases_the_slot(
        backend, tmp_path):
    """An explicit commit inside ``with`` that raises still frees the
    single-writer slot, and the abort ``with`` then calls is accepted."""
    if backend == "single":
        store = ProfileStore(log_path=str(tmp_path / "p.wal"))
        store.backend._log.close()  # the log's disk is gone
        failure = ValueError
    else:
        store = brick_store()
        for slot in range(3):
            store.backend.bricks.brick_at(slot).kill()
        failure = QuorumError
    with pytest.raises(failure):
        with store.begin() as tx:
            tx.set("u", "k", 1)
            tx.commit()
    assert (store.commits, store.aborts) == (0, 1)
    assert tx.state == "aborted"
    store.begin().abort()
    assert store.aborts == 2


def test_the_front_alone_defines_the_shared_verbs():
    """Transactions, validation and reads are written once, on the
    front; a backend only commits, reads, lists users and recovers."""
    front_only = {"begin", "_validate", "_abort", "get_value",
                  "__contains__"}
    front_and_helpers = {"set", "delete", "get"}
    helpers = {"Transaction", "WriteThroughCache"}
    for module in (customization, store_module):
        with open(module.__file__, encoding="utf-8") as source:
            tree = ast.parse(source.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            verbs = {item.name for item in node.body
                     if isinstance(item, ast.FunctionDef)}
            if node.name != "ProfileStore":
                assert not verbs & front_only, node.name
            if node.name not in helpers | {"ProfileStore"}:
                assert not verbs & front_and_helpers, node.name
    for backend in (WriteAheadLog, QuorumCoordinator):
        assert {"commit", "read", "users", "recover"} <= set(vars(backend))


# -- durability and recovery ----------------------------------------------------------

def test_recovery_replays_committed_transactions(tmp_path):
    path = str(tmp_path / "profiles.wal")
    store = ProfileStore(log_path=path)
    store.set("u1", "a", 1)
    with store.begin() as tx:
        tx.set("u1", "b", 2)
        tx.delete("u1", "a")
    store.close()

    recovered = ProfileStore(log_path=path)
    assert recovered.get("u1") == {"b": 2}


def test_crash_mid_transaction_loses_whole_transaction(tmp_path):
    """Atomicity: a begin without a commit must be invisible."""
    path = str(tmp_path / "profiles.wal")
    store = ProfileStore(log_path=path)
    store.set("u1", "safe", True)
    store.close()
    # simulate a crash after some ops but before the commit record
    with open(path, "a", encoding="utf-8") as log:
        log.write(json.dumps({"op": "begin", "tx": 99}) + "\n")
        log.write(json.dumps({"op": "set", "tx": 99, "user": "u1",
                              "key": "torn", "value": 1}) + "\n")
    recovered = ProfileStore(log_path=path)
    assert recovered.get("u1") == {"safe": True}


def test_torn_tail_line_is_tolerated(tmp_path):
    path = str(tmp_path / "profiles.wal")
    store = ProfileStore(log_path=path)
    store.set("u1", "a", 1)
    store.close()
    with open(path, "a", encoding="utf-8") as log:
        log.write('{"op": "beg')  # partial line: crash mid-write
    recovered = ProfileStore(log_path=path)
    assert recovered.get("u1") == {"a": 1}


def test_corruption_before_tail_raises(tmp_path):
    path = str(tmp_path / "profiles.wal")
    with open(path, "w", encoding="utf-8") as log:
        log.write("GARBAGE\n")
        log.write(json.dumps({"op": "begin", "tx": 1}) + "\n")
    with pytest.raises(StoreCorrupt):
        ProfileStore(log_path=path)


def test_tx_ids_continue_after_recovery(tmp_path):
    """The log numbers its transactions; a reopened log keeps counting
    where the recovered one stopped, so no two share an id."""
    path = str(tmp_path / "profiles.wal")
    store = ProfileStore(log_path=path)
    store.set("u", "a", 1)
    store.set("u", "b", 2)
    store.close()
    recovered = ProfileStore(log_path=path)
    recovered.begin().abort()
    recovered.set("u", "c", 3)
    recovered.close()
    with open(path, encoding="utf-8") as log:
        begins = [record["tx"] for record in map(json.loads, log)
                  if record["op"] == "begin"]
    assert begins == [1, 2, 3]


def test_checkpoint_compacts_log_and_preserves_state(tmp_path):
    path = str(tmp_path / "profiles.wal")
    store = ProfileStore(log_path=path)
    for round_number in range(20):
        store.set("u1", "counter", round_number)
    size_before = os.path.getsize(path)
    store.checkpoint()
    size_after = os.path.getsize(path)
    assert size_after < size_before
    assert store.get_value("u1", "counter") == 19
    store.set("u1", "post", "ckpt")
    store.close()
    recovered = ProfileStore(log_path=path)
    assert recovered.get("u1") == {"counter": 19, "post": "ckpt"}


def test_checkpoint_with_open_transaction_rejected(tmp_path):
    store = ProfileStore(log_path=str(tmp_path / "p.wal"))
    tx = store.begin()
    with pytest.raises(TransactionError):
        store.checkpoint()
    tx.abort()


def test_a_closed_log_refuses_every_later_write(tmp_path):
    """A closed file-backed store used to acknowledge writes it never
    logged, which a reopened store then lost."""
    path = str(tmp_path / "p.wal")
    store = ProfileStore(log_path=path)
    store.set("u", "a", 1)
    store.close()
    with pytest.raises(TransactionError):
        store.begin()
    with pytest.raises(TransactionError):
        store.set("u", "b", 2)
    assert store.commits == 1
    assert ProfileStore(log_path=path).get("u") == {"a": 1}


def test_closing_refuses_an_open_transactions_commit(tmp_path):
    path = str(tmp_path / "p.wal")
    store = ProfileStore(log_path=path)
    tx = store.begin()
    tx.set("u", "a", 1)
    store.close()
    with pytest.raises(TransactionError):
        tx.commit()
    assert store.commits == 0
    assert ProfileStore(log_path=path).get("u") == {}


# -- property-based: recovery is lossless for committed data ------------------------

@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["u1", "u2", "u3"]),
            st.sampled_from(["a", "b", "c"]),
            st.one_of(st.none(), st.integers(-100, 100),
                      st.text(max_size=8)),
        ),
        max_size=30,
    )
)
def test_recovery_equals_in_memory_state(tmp_path_factory, ops):
    """After any sequence of committed sets/deletes, recovery from the WAL
    reproduces the in-memory state exactly."""
    path = str(tmp_path_factory.mktemp("wal") / "p.wal")
    store = ProfileStore(log_path=path)
    for user, key, value in ops:
        if value is None:
            store.delete(user, key)
        else:
            store.set(user, key, value)
    expected = {user: store.get(user) for user in store.users()}
    store.close()
    recovered = ProfileStore(log_path=path)
    assert {u: recovered.get(u) for u in recovered.users()} == expected


# -- write-through cache -----------------------------------------------------------

def test_cache_reads_hit_after_first_miss():
    store = ProfileStore()
    store.set("u1", "k", 1)
    cache = WriteThroughCache(store)
    assert cache.get("u1") == {"k": 1}
    assert cache.get("u1") == {"k": 1}
    assert cache.misses == 1
    assert cache.hits == 1


def test_cache_write_through_updates_both():
    store = ProfileStore()
    cache = WriteThroughCache(store)
    cache.set("u1", "k", "v")
    assert store.get_value("u1", "k") == "v"
    assert cache.get("u1") == {"k": "v"}
    assert cache.hits == 1  # the write primed the cache


def test_cache_invalidate():
    store = ProfileStore()
    store.set("u1", "k", 1)
    cache = WriteThroughCache(store)
    cache.get("u1")
    store.set("u1", "k", 2)  # write bypassing the cache
    assert cache.get("u1") == {"k": 1}  # stale
    cache.invalidate("u1")
    assert cache.get("u1") == {"k": 2}
    cache.invalidate()
    assert cache.get("u1") == {"k": 2}
    assert cache.misses == 3
