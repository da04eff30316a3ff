"""Trace-driven cache simulation for the Section 4.4 studies.

"We ran a number of cache simulations to explore the relationship
between user population size, cache size, and cache hit rate, using LRU
replacement."  The paper's findings, which the experiment drivers
reproduce:

* hit rate rises monotonically with cache size, then **plateaus** at a
  level set by the user population (≈56 % at 6 GB for the ~8000 traced
  users);
* for a fixed cache size, hit rate **rises with population** (shared
  locality) until the union of working sets exceeds the cache, after
  which it falls.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.cache.lru import LRUCache


class CacheSimulator:
    """Feed (key, size) references through an LRU cache and tally."""

    def __init__(self, capacity_bytes: int) -> None:
        self.cache = LRUCache(capacity_bytes)
        self.requests = 0
        self.hit_bytes = 0
        self.total_bytes = 0

    def reference(self, key: str, size_bytes: int) -> bool:
        """Process one reference; returns True on hit."""
        self.requests += 1
        self.total_bytes += size_bytes
        if self.cache.get(key) is not None:
            self.hit_bytes += size_bytes
            return True
        self.cache.put(key, True, size_bytes)
        return False

    def run(self, references: Iterable[Tuple[str, int]]) -> "CacheSimulator":
        for key, size_bytes in references:
            self.reference(key, size_bytes)
        return self

    @property
    def hit_rate(self) -> float:
        return self.cache.hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_rate(self) -> float:
        """Fraction of bytes served from cache — what saves the ISP's
        T1 lines in the Section 5.2 economics argument."""
        return self.hit_bytes / self.total_bytes if self.total_bytes else 0.0
