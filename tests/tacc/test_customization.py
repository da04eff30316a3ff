"""Tests for the ACID profile store and its write-through cache."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tacc.customization import (
    ProfileStore,
    StoreCorrupt,
    TransactionError,
    WriteThroughCache,
)


# -- basic operations ---------------------------------------------------------

def test_set_get_roundtrip():
    store = ProfileStore()
    store.set("u1", "quality", 25)
    assert store.get_value("u1", "quality") == 25
    assert store.get("u1") == {"quality": 25}
    assert "u1" in store
    assert store.users() == ["u1"]


def test_get_returns_copy():
    store = ProfileStore()
    store.set("u1", "k", 1)
    profile = store.get("u1")
    profile["k"] = 999
    assert store.get_value("u1", "k") == 1


def test_delete_removes_key_and_empty_user():
    store = ProfileStore()
    store.set("u1", "k", 1)
    store.delete("u1", "k")
    assert "u1" not in store
    assert store.get("u1") == {}


def test_missing_values_use_default():
    store = ProfileStore()
    assert store.get_value("ghost", "k", "dflt") == "dflt"


# -- transactions -----------------------------------------------------------------

def test_transaction_commit_applies_all_writes():
    store = ProfileStore()
    with store.begin() as tx:
        tx.set("u1", "a", 1)
        tx.set("u1", "b", 2)
        tx.set("u2", "c", 3)
    assert store.get("u1") == {"a": 1, "b": 2}
    assert store.get("u2") == {"c": 3}
    assert store.commits == 1


def test_transaction_abort_applies_nothing():
    store = ProfileStore()
    tx = store.begin()
    tx.set("u1", "a", 1)
    tx.abort()
    assert "u1" not in store
    assert store.aborts == 1


def test_exception_in_with_block_aborts():
    store = ProfileStore()
    with pytest.raises(RuntimeError):
        with store.begin() as tx:
            tx.set("u1", "a", 1)
            raise RuntimeError("service error")
    assert "u1" not in store


def test_read_your_writes_inside_transaction():
    store = ProfileStore()
    store.set("u1", "a", "old")
    tx = store.begin()
    tx.set("u1", "a", "new")
    assert tx.get("u1", "a") == "new"
    assert store.get_value("u1", "a") == "old"  # not visible until commit
    tx.delete("u1", "a")
    assert tx.get("u1", "a", "gone") == "gone"
    tx.commit()
    assert store.get_value("u1", "a") is None


def test_single_writer_isolation():
    store = ProfileStore()
    tx = store.begin()
    with pytest.raises(TransactionError):
        store.begin()
    tx.abort()
    store.begin().commit()  # usable again after abort


def test_transaction_unusable_after_commit():
    store = ProfileStore()
    tx = store.begin()
    tx.commit()
    with pytest.raises(TransactionError):
        tx.set("u", "k", 1)
    with pytest.raises(TransactionError):
        tx.commit()


def test_non_json_values_rejected():
    store = ProfileStore()
    with pytest.raises(TransactionError):
        store.set("u", "k", object())


def test_custom_validator_enforced():
    def validator(user, key, value):
        if key == "quality" and not 0 <= value <= 100:
            raise TransactionError("quality out of range")

    store = ProfileStore(validator=validator)
    store.set("u", "quality", 50)
    with pytest.raises(TransactionError):
        store.set("u", "quality", 500)


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
    path = str(tmp_path / "profiles.wal")
    store = ProfileStore(log_path=path)
    store.set("u", "a", 1)
    store.set("u", "b", 2)
    store.close()
    recovered = ProfileStore(log_path=path)
    tx = recovered.begin()
    assert tx.tx_id > 2
    tx.abort()


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
