"""Tests for the byte-capacity LRU cache, including property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import LRUCache


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_get_miss_returns_none_and_counts():
    cache = LRUCache(100)
    assert cache.get("nope") is None
    assert cache.misses == 1
    assert cache.hit_rate == 0.0


def test_put_get_roundtrip():
    cache = LRUCache(100)
    cache.put("a", "value-a", 10)
    assert cache.get("a") == "value-a"
    assert cache.hits == 1
    assert cache.used_bytes == 10
    assert "a" in cache
    assert len(cache) == 1


def test_eviction_in_lru_order():
    cache = LRUCache(30)
    cache.put("a", 1, 10)
    cache.put("b", 2, 10)
    cache.put("c", 3, 10)
    cache.get("a")          # refresh a; b is now LRU
    cache.put("d", 4, 10)   # evicts b
    assert "b" not in cache
    assert "a" in cache and "c" in cache and "d" in cache
    assert cache.evictions == 1


def test_replace_updates_size_accounting():
    cache = LRUCache(100)
    cache.put("a", "small", 10)
    cache.put("a", "large", 60)
    assert cache.used_bytes == 60
    assert len(cache) == 1


def test_object_larger_than_cache_not_stored():
    cache = LRUCache(100)
    cache.put("huge", "x", 500)
    assert "huge" not in cache
    assert cache.used_bytes == 0


def test_oversize_replacement_removes_old_entry():
    cache = LRUCache(100)
    cache.put("a", "v", 10)
    cache.put("a", "huge", 500)
    assert "a" not in cache
    assert cache.used_bytes == 0


def test_flush_clears_everything():
    cache = LRUCache(100)
    for index in range(5):
        cache.put(f"k{index}", index, 10)
    assert cache.flush() == 5
    assert len(cache) == 0
    assert cache.used_bytes == 0


def test_zero_size_entries_allowed():
    cache = LRUCache(10)
    cache.put("empty", "", 0)
    assert "empty" in cache
    with pytest.raises(ValueError):
        cache.put("neg", "", -1)


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 40)),
        max_size=200,
    ),
    capacity=st.integers(1, 200),
)
def test_lru_invariants_hold_under_any_workload(ops, capacity):
    """used_bytes never exceeds capacity and always equals the sum of
    resident entry sizes, for any put sequence."""
    cache = LRUCache(capacity)
    sizes = {}
    for key, size in ops:
        cache.put(key, f"v{key}", size)
        sizes[key] = size
    assert cache.used_bytes <= capacity
    resident = sum(sizes[key] for key in cache.keys())
    assert cache.used_bytes == resident


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 10), min_size=1, max_size=300))
def test_lru_smaller_cache_never_beats_bigger(keys):
    """Inclusion property of LRU: hit count is monotone in capacity
    (for uniform object sizes)."""
    references = [(f"k{key}", 10) for key in keys]

    def hits(capacity):
        cache = LRUCache(capacity)
        for key, size in references:
            if cache.get(key) is None:
                cache.put(key, True, size)
        return cache.hits

    assert hits(50) <= hits(100)
