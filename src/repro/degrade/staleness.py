"""Freshness-aware result cache for the serve-stale ladder level.

An ordinary cache answers "do I have it?"; the serve-stale level also
needs "how old is it?".  :class:`FreshnessCache` stamps every entry
with its store time and classifies lookups into *fresh* (younger than
the fresh TTL — always servable), *stale* (between the fresh and
stale TTLs — servable only while the ladder is at the serve-stale
level or above, as a harvest-degraded answer), and *expired* (older
than the stale TTL — a miss).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

FRESH = "fresh"
STALE = "stale"


class FreshnessCache:
    """Key → (value, stored_at) with fresh/stale classification."""

    def __init__(self, fresh_ttl_s: float, stale_ttl_s: float) -> None:
        if fresh_ttl_s <= 0 or stale_ttl_s < fresh_ttl_s:
            raise ValueError(
                "need 0 < fresh TTL <= stale TTL")
        self.fresh_ttl_s = fresh_ttl_s
        self.stale_ttl_s = stale_ttl_s
        self._entries: Dict[Any, Tuple[Any, float]] = {}
        self.misses = 0

    def put(self, key: Any, value: Any, now: float) -> None:
        self._entries[key] = (value, now)

    def get(self, key: Any, now: float) -> Optional[Tuple[str, Any]]:
        """Return ("fresh"|"stale", value), or None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        value, stored_at = entry
        age = now - stored_at
        if age <= self.fresh_ttl_s:
            return (FRESH, value)
        if age <= self.stale_ttl_s:
            return (STALE, value)
        # expired: drop it so the dict cannot grow without bound
        del self._entries[key]
        self.misses += 1
        return None

    def __len__(self) -> int:
        return len(self._entries)
