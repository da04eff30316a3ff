"""Byte-capacity LRU cache.

The unit of capacity is bytes, not entries: the paper's cache study
(Section 4.4) sweeps *gigabytes* of cache against hit rate, and Web
objects span five orders of magnitude in size (Figure 5), so entry-count
capacity would distort everything.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterator, Optional, Tuple

from repro.domains import check_args, positive


class LRUCache:
    """Least-recently-used cache with a byte budget."""

    #: argument domains (a NaN capacity compares false with every size,
    #: so nothing would ever be evicted)
    DOMAINS = {"capacity_bytes": positive()}

    def __init__(self, capacity_bytes: int) -> None:
        check_args(self.DOMAINS, capacity_bytes=capacity_bytes)
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Optional[Any]:
        """Value for ``key`` (refreshing recency), or None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: Any, value: Any, size_bytes: int) -> None:
        """Insert or replace ``key``; evict LRU entries to fit.

        Objects larger than the whole cache are not cached at all (the
        standard proxy-cache policy — one huge object must not flush
        everything else).
        """
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        if size_bytes > self.capacity_bytes:
            self._remove(key)
            return
        self._remove(key)
        while self.used_bytes + size_bytes > self.capacity_bytes:
            self._evict_one()
        self._entries[key] = (value, size_bytes)
        self.used_bytes += size_bytes

    def _remove(self, key: Any) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.used_bytes -= entry[1]

    def _evict_one(self) -> None:
        _, (_, size) = self._entries.popitem(last=False)
        self.used_bytes -= size
        self.evictions += 1

    def flush(self) -> int:
        """Drop everything (BASE: cached data is disposable soft state).
        Returns the number of entries dropped."""
        count = len(self._entries)
        self._entries.clear()
        self.used_bytes = 0
        return count

    def keys(self) -> Iterator[Any]:
        return iter(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (f"<LRUCache {self.used_bytes}/{self.capacity_bytes}B "
                f"{len(self._entries)} entries hit_rate="
                f"{self.hit_rate:.2f}>")
