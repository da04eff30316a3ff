"""Coherence of :class:`WriteThroughCache`: deletes, overwrites, and
tombstones must never serve stale reads — including after a store
recovery rolled back state the cache had already absorbed."""

import pytest

from repro.tacc.customization import ProfileStore, WriteThroughCache


def make_pair(tmp_path=None):
    path = str(tmp_path / "profiles.wal") if tmp_path else None
    store = ProfileStore(log_path=path)
    return store, WriteThroughCache(store)


def test_overwrite_through_cache_is_immediately_visible():
    store, cache = make_pair()
    cache.set("alice", "quality", 60)
    assert cache.get("alice") == {"quality": 60}
    cache.set("alice", "quality", 75)
    assert cache.get("alice")["quality"] == 75
    assert store.get_value("alice", "quality") == 75


def test_delete_through_cache_never_serves_deleted_key():
    store, cache = make_pair()
    cache.set("alice", "quality", 60)
    cache.set("alice", "scale", 0.5)
    cache.get("alice")  # warm the cache entry
    cache.delete("alice", "quality")
    assert "quality" not in cache.get("alice")
    assert cache.get("alice") == {"scale": 0.5}
    assert store.get_value("alice", "quality") is None


def test_delete_of_uncached_user_stays_coherent():
    store, cache = make_pair()
    store.set("bob", "quality", 30)  # written behind the cache's back
    cache.delete("bob", "quality")
    assert cache.get("bob") == {}


def test_returned_profile_is_a_copy():
    _, cache = make_pair()
    cache.set("alice", "quality", 60)
    profile = cache.get("alice")
    profile["quality"] = 1
    assert cache.get("alice")["quality"] == 60


def test_invalidate_forces_store_reread():
    store, cache = make_pair()
    cache.set("alice", "quality", 60)
    store.set("alice", "quality", 99)  # out-of-band write: cache stale
    assert cache.get("alice")["quality"] == 60  # by design (one FE)
    cache.invalidate("alice")
    assert cache.get("alice")["quality"] == 99
    cache.invalidate()
    assert cache.get("alice")["quality"] == 99


def test_recovery_generation_flushes_cache(tmp_path):
    """A recovery may roll the store back past state the cache already
    absorbed (a torn-tail transaction); the generation stamp must
    flush every cached read from before the recovery."""
    store, cache = make_pair(tmp_path)
    cache.set("alice", "quality", 60)
    store.close()

    # tear the tail: the last transaction never hit disk whole
    wal = tmp_path / "profiles.wal"
    wal.write_bytes(wal.read_bytes()[:-10])

    store.recover()
    assert store.get("alice") == {}  # rolled back on the store side
    # the cache notices the generation bump and drops its stale copy
    assert cache.get("alice") == {}
    assert cache.generation_flushes == 1


def test_tombstone_not_resurrected_by_recovery(tmp_path):
    """A committed delete must stay deleted through recovery, and the
    cache must not re-serve the pre-delete value afterwards."""
    store, cache = make_pair(tmp_path)
    cache.set("alice", "quality", 60)
    cache.delete("alice", "quality")
    store.recover()
    assert store.get_value("alice", "quality") is None
    assert cache.get("alice") == {}
    assert "quality" not in cache.get("alice")


def test_writes_after_recovery_repopulate_cache(tmp_path):
    store, cache = make_pair(tmp_path)
    cache.set("alice", "quality", 60)
    store.recover()
    cache.set("alice", "quality", 42)
    assert cache.get("alice")["quality"] == 42
    store.recover()
    assert cache.get("alice")["quality"] == 42
    assert cache.generation_flushes == 2


def test_hit_rate_accounting_unaffected_by_flushes(tmp_path):
    store, cache = make_pair(tmp_path)
    cache.set("alice", "quality", 60)
    cache.get("alice")
    cache.get("alice")
    hits_before = cache.hits
    store.recover()
    cache.get("alice")  # first read after flush is a miss
    assert cache.hits == hits_before
    assert cache.misses >= 1


@pytest.mark.xfail(strict=True, reason=(
    "known defect, ROADMAP item 6 (iv): a write-through set on an "
    "uncached user caches only the written key; fixing it moves which "
    "profile reads hit the cache in campaigns that write profiles"))
def test_set_on_an_uncached_user_caches_the_whole_profile():
    store, cache = make_pair()
    store.set("alice", "quality", 60)  # written before the cache saw her
    cache.set("alice", "scale", 0.5)
    assert cache.get("alice") == store.get("alice") == {"quality": 60,
                                                        "scale": 0.5}
