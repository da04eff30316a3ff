"""HotBot's integrated cache of recent searches (Table 1).

"Caching: integrated cache of recent searches, for incremental
delivery."  Search engines answer the same hot queries over and over,
and a user paging to results 11-20 re-issues the query they just ran;
HotBot therefore cached *deep* result lists keyed by the normalized
query and served successive pages — incremental delivery — from that
cache without touching the partitions again.  A cached list is the
collated ``(-score, doc_id)`` pairs held as two typed columns, an
``array('d')`` of negated scores and an ``array('i')`` of doc ids;
pairs, and from them hits, are made for the page read.

The cached result lists are BASE soft state: a lost cache only costs
recomputation, and entries may be slightly stale with respect to index
updates (eventual consistency is exactly the paper's point about search
results).
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

from repro.cache.lru import LRUCache
from repro.hotbot.index import Ranked

#: how deep a result list the cache stores per query: one scatter-gather
#: can serve this many pages of incremental delivery.
CACHE_DEPTH = 100
#: the LRU's byte budget
CAPACITY_BYTES = 4_000_000
#: nominal bytes per cached hit, for the LRU byte budget.
HIT_BYTES = 96


def normalize_query(terms: Sequence[str]) -> Tuple[str, ...]:
    """Canonical cache key: lowercase, de-duplicated, sorted terms."""
    return tuple(sorted({term.lower() for term in terms}))


class QueryCache:
    """LRU of deep result lists keyed by normalized query."""

    #: read by the front end, which fetches a list this deep on a miss
    depth = CACHE_DEPTH

    def __init__(self) -> None:
        self._store = LRUCache(CAPACITY_BYTES)
        self.incremental_hits = 0

    def get_page_by_key(self, key: Tuple[str, ...], offset: int,
                        k: int) -> Optional[List[Ranked]]:
        """Ranked pairs [offset, offset+k) if the list cached under ``key``
        (``normalize_query(terms)``: the front end normalizes a query
        once, for the lookup and the store after a miss) covers them.

        A cached list covers the page when it is deep enough *or* it is
        the complete answer (shorter than the cache depth means the
        query simply has no more results).
        """
        if offset < 0 or k < 1:
            raise ValueError("offset must be >= 0 and k >= 1")
        cached = self._store.get(key)
        if cached is None:
            return None
        negated, doc_ids = cached
        depth = len(doc_ids)
        end = offset + k
        if depth >= end or depth < self.depth:
            if offset > 0:
                self.incremental_hits += 1
            return list(zip(negated[offset:end], doc_ids[offset:end]))
        return None  # cached list too shallow for this page

    def store_by_key(self, key: Tuple[str, ...],
                     ranked: List[Ranked]) -> None:
        """Cache ``ranked`` as its two columns; the LRU is charged
        ``HIT_BYTES`` a pair, as it was for a list of tuples."""
        size = max(HIT_BYTES, HIT_BYTES * len(ranked))
        negated, doc_ids = zip(*ranked) if ranked else ((), ())
        self._store.put(key, (array("d", negated), array("i", doc_ids)),
                        size)
