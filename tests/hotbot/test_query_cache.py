"""Tests for HotBot's recent-searches cache and incremental delivery."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.campaign import CrashSearchNode, Faults
from repro.hotbot import index as index_module
from repro.hotbot.query_cache import (CAPACITY_BYTES, HIT_BYTES, QueryCache,
                                      normalize_query)
from repro.hotbot.service import TOP_K, HotBot, HotBotConfig


def hits(n):
    """What the cache holds: collated ``(-score, doc_id)`` pairs."""
    return [(-float(100 - i), i) for i in range(n)]


# -- unit: the cache itself --------------------------------------------------

def test_normalize_query_canonicalizes():
    assert normalize_query(["B", "a", "b"]) == ("a", "b")
    assert normalize_query(["a", "b"]) == normalize_query(["b", "A"])


def test_miss_then_hit():
    cache = QueryCache()
    assert cache.get_page_by_key(("a",), 0, 10) is None
    cache.store_by_key(("a",), hits(50))
    page = cache.get_page_by_key(("a",), 0, 10)
    assert [doc_id for _, doc_id in page] == list(range(10))


def test_incremental_delivery_pages_from_one_fetch():
    cache = QueryCache()
    cache.store_by_key(("a",), hits(50))
    page2 = cache.get_page_by_key(("a",), 10, 10)
    assert [doc_id for _, doc_id in page2] == list(range(10, 20))
    assert cache.incremental_hits == 1


def test_shallow_cached_list_misses_deep_pages():
    cache = QueryCache()
    cache.store_by_key(("a",), hits(100))
    # asking past the cached depth cannot be served
    assert cache.get_page_by_key(("a",), 95, 10) is None


def test_exhausted_result_list_serves_any_page():
    """A query with only 7 total results: page 2 is validly empty."""
    cache = QueryCache()
    cache.store_by_key(("rare",), hits(7))
    assert cache.get_page_by_key(("rare",), 0, 10) == hits(7)[:10]
    assert cache.get_page_by_key(("rare",), 10, 10) == []


def test_validation():
    cache = QueryCache()
    with pytest.raises(ValueError):
        cache.get_page_by_key(("a",), -1, 10)
    with pytest.raises(ValueError):
        cache.get_page_by_key(("a",), 0, 0)


def test_lru_eviction_by_bytes():
    cache = QueryCache()
    room = CAPACITY_BYTES // (HIT_BYTES * 100)  # hundred-deep lists
    for query in range(room):
        cache.store_by_key((f"w{query}",), hits(100))
    assert cache.get_page_by_key(("w0",), 0, 10) is not None
    # w0 was read last: the next store evicts w1, the least recent
    cache.store_by_key(("b",), hits(100))
    assert cache.get_page_by_key(("w1",), 0, 10) is None
    assert cache.get_page_by_key(("w0",), 0, 10) is not None
    assert cache.get_page_by_key(("b",), 0, 10) is not None


class ListSlicingCache:
    """The cache as it was when it held each collated list itself:
    a page is a slice of the list, served when the list is deep enough
    or shorter than the depth (the complete answer)."""

    def __init__(self, depth):
        self.depth = depth
        self.lists = {}
        self.incremental_hits = 0

    def store_by_key(self, key, ranked):
        self.lists[key] = ranked

    def get_page_by_key(self, key, offset, k):
        ranked = self.lists.get(key)
        if ranked is None:
            return None
        if len(ranked) >= offset + k or len(ranked) < self.depth:
            if offset > 0:
                self.incremental_hits += 1
            return ranked[offset: offset + k]
        return None


@st.composite
def collated(draw):
    """Up to 150 collated pairs: distinct 32-bit doc ids, scores of any
    finite size (zero and subnormals included), sorted as `collate`
    sorts them."""
    doc_ids = draw(st.lists(st.integers(0, 2 ** 31 - 1), unique=True,
                            max_size=150))
    scores = draw(st.lists(st.floats(min_value=0.0, allow_nan=False,
                                     allow_infinity=False),
                           min_size=len(doc_ids), max_size=len(doc_ids)))
    return sorted((-score, doc_id)
                  for score, doc_id in zip(scores, doc_ids))


@settings(max_examples=300, deadline=None)
@given(ranked=collated(),
       pages=st.lists(st.tuples(st.integers(0, 170), st.integers(1, 40)),
                      min_size=1, max_size=6))
def test_the_columns_page_exactly_as_slicing_the_list(ranked, pages):
    """A cached list is two typed columns, not the list: every page
    (or miss) equals the list slice, each score to the bit, and the
    incremental hits are counted alike."""
    cache = QueryCache()
    reference = ListSlicingCache(cache.depth)
    cache.store_by_key(("q",), list(ranked))
    reference.store_by_key(("q",), ranked)
    for offset, k in pages:
        page = cache.get_page_by_key(("q",), offset, k)
        expected = reference.get_page_by_key(("q",), offset, k)
        if expected is None:
            assert page is None
            continue
        assert page == expected
        assert [(score.hex(), type(doc_id)) for score, doc_id in page] \
            == [(score.hex(), int) for score, _ in expected]
    assert cache.incremental_hits == reference.incremental_hits
    assert cache.get_page_by_key(("other",), 0, 10) is None


#: bytes the recent-searches cache may hold per cached pair, its LRU
#: bookkeeping included.  Two typed columns (12 bytes a pair) take
#: about 15.8 with it; the list of `(-score, doc_id)` tuples the cache
#: held before took 121.
QUERY_CACHE_BYTES_PER_PAIR = 18


def test_query_cache_footprint_stays_in_budget():
    """A deployment keeps its cache full for its whole life, so the
    bytes per cached pair are defended as a count, like the corpus and
    the indexes (`tests/hotbot/test_build.py`).  The lists are made
    inside the measurement, as `collate` makes them, and given up to
    the cache."""
    keys = [(f"w{query}",) for query in range(300)]
    cache = QueryCache()   # room for every list
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for query, key in enumerate(keys):
            cache.store_by_key(key, [
                (-1.0 / (query + rank + 1), (query * 7919 + rank) % 4000)
                for rank in range(100)])
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_pair = (after - before) / (100 * len(keys))
    assert per_pair <= QUERY_CACHE_BYTES_PER_PAIR, per_pair


# -- integrated: through the HotBot front end --------------------------------------

def make_hotbot(**overrides):
    defaults = dict(n_workers=4, n_docs=400, gather_timeout_s=1.0)
    defaults.update(overrides)
    return HotBot(config=HotBotConfig(**defaults), seed=21)


def test_repeated_query_served_from_cache():
    hotbot = make_hotbot()
    first = hotbot.run_until(hotbot.submit(["w3", "w7"]))
    assert not first.from_cache
    before = sum(worker.queries_served for worker in hotbot.workers)
    second = hotbot.run_until(hotbot.submit(["w3", "w7"]))
    assert second.from_cache
    assert [h.doc_id for h in second.hits] == \
        [h.doc_id for h in first.hits]
    after = sum(worker.queries_served for worker in hotbot.workers)
    assert after == before  # partitions untouched
    assert hotbot.cache_served == 1


def test_page_two_is_incremental_delivery():
    hotbot = make_hotbot()
    page1 = hotbot.run_until(hotbot.submit(["w3"], offset=0))
    page2 = hotbot.run_until(hotbot.submit(["w3"], offset=10))
    assert page2.from_cache
    ids1 = {hit.doc_id for hit in page1.hits}
    ids2 = {hit.doc_id for hit in page2.hits}
    assert not ids1 & ids2  # disjoint pages
    if page2.hits:
        assert min(hit.score for hit in page1.hits) >= \
            max(hit.score for hit in page2.hits)


def test_partial_answers_are_not_cached():
    hotbot = make_hotbot()
    Faults(hotbot).arm((CrashSearchNode(at=0.0, partition=0),))
    degraded = hotbot.run_until(hotbot.submit(["w3"]))
    assert degraded.partial
    again = hotbot.run_until(hotbot.submit(["w3"]))
    assert not again.from_cache  # never serves a degraded snapshot


def test_query_term_order_irrelevant_for_cache():
    hotbot = make_hotbot()
    hotbot.run_until(hotbot.submit(["w3", "w7"]))
    reordered = hotbot.run_until(hotbot.submit(["w7", "w3"]))
    assert reordered.from_cache


def test_query_case_is_folded_for_the_scatter_as_for_the_cache():
    """The cache key folds case, so the partitions must be asked in the
    same spelling: `W5` used to match no posting, store an empty
    *complete* answer under ("w5",), and leave the next `w5` served
    nothing from the cache."""
    hotbot = HotBot(HotBotConfig(n_workers=4, n_docs=400), seed=3)
    upper = hotbot.run_until(hotbot.submit(["W5"]))
    lower = hotbot.run_until(hotbot.submit(["w5"]))
    fresh = HotBot(HotBotConfig(n_workers=4, n_docs=400), seed=3)
    expected = fresh.run_until(fresh.submit(["w5"]))
    assert len(expected.hits) == 10 and not expected.from_cache
    assert upper.hits == expected.hits and not upper.from_cache
    assert lower.hits == expected.hits and lower.from_cache


def test_cached_pages_are_the_slices_of_one_deep_scatter():
    """Pages 1, 2 and 10 served from the cache are the slices of the
    hundred-deep answer a fresh deployment scatters for at the same
    offset, hit for hit (urls and scores included) — and cost the
    partitions nothing."""
    hotbot = make_hotbot(n_docs=1200)
    terms = ["w0", "w1"]
    first = hotbot.run_until(hotbot.submit(terms))
    assert not first.from_cache
    legs = sum(worker.queries_served for worker in hotbot.workers)
    assert hotbot.query_cache.depth == 100
    for offset in (0, 10, 90):
        page = hotbot.run_until(hotbot.submit(terms, offset=offset))
        assert page.from_cache
        fresh = make_hotbot(n_docs=1200)
        scattered = fresh.run_until(fresh.submit(terms, offset=offset))
        assert not scattered.from_cache
        assert page.hits == scattered.hits and len(page.hits) == TOP_K
    assert hotbot.query_cache.incremental_hits == 2
    assert sum(worker.queries_served for worker in hotbot.workers) == legs


def test_a_query_constructs_only_the_hits_of_its_page(monkeypatch):
    """The deep list stays columns: a scattered query that collates a
    hundred candidates makes `TOP_K` result objects, and so does a
    page read back from the cache."""
    made = []
    real = index_module.SearchHit

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(index_module, "SearchHit", counting)
    hotbot = make_hotbot(n_docs=1200)
    scattered = hotbot.run_until(hotbot.submit(["w0", "w1"]))
    assert not scattered.from_cache
    assert len(made) == len(scattered.hits) == TOP_K
    made.clear()
    cached = hotbot.run_until(hotbot.submit(["w0", "w1"], offset=10))
    assert cached.from_cache
    assert len(made) == len(cached.hits) == TOP_K
