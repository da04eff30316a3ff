"""FreshnessCache: fresh/stale/expired classification and counters."""

import pytest

from repro.degrade.staleness import FRESH, STALE, FreshnessCache


def test_ttl_validation():
    with pytest.raises(ValueError):
        FreshnessCache(fresh_ttl_s=0.0, stale_ttl_s=10.0)
    with pytest.raises(ValueError):
        FreshnessCache(fresh_ttl_s=5.0, stale_ttl_s=4.0)


def test_fresh_then_stale_then_expired():
    cache = FreshnessCache(fresh_ttl_s=2.0, stale_ttl_s=10.0)
    cache.put("a", "value", now=0.0)
    assert cache.get("a", now=2.0) == (FRESH, "value")   # boundary
    assert cache.get("a", now=2.1) == (STALE, "value")
    assert cache.get("a", now=10.0) == (STALE, "value")  # boundary
    assert cache.get("a", now=10.1) is None
    assert cache.misses == 1


def test_expired_entries_are_deleted():
    cache = FreshnessCache(fresh_ttl_s=1.0, stale_ttl_s=2.0)
    cache.put("a", 1, now=0.0)
    cache.put("b", 2, now=0.0)
    assert len(cache) == 2
    assert cache.get("a", now=5.0) is None
    assert len(cache) == 1  # the bound on unbounded growth


def test_missing_key_is_a_miss():
    cache = FreshnessCache(fresh_ttl_s=1.0, stale_ttl_s=2.0)
    assert cache.get("never-stored", now=0.0) is None
    assert cache.misses == 1


def test_rewriting_refreshes_the_timestamp():
    cache = FreshnessCache(fresh_ttl_s=1.0, stale_ttl_s=10.0)
    cache.put("a", "old", now=0.0)
    cache.put("a", "new", now=5.0)
    assert cache.get("a", now=5.5) == (FRESH, "new")
