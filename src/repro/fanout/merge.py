"""Order-independent merge adapters for sharded sweep results.

Shards come back in spec order (:class:`~repro.fanout.shard.SweepResult`
guarantees it), so merging is a deterministic fold over that order.
These helpers cover the two aggregate shapes the repo's sweeps
produce: latency sample pools (via the existing
:meth:`~repro.analysis.metrics.LatencyStats.merge`) and summed counter
dicts (chaos report folding).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.analysis.metrics import LatencyStats

__all__ = ["merge_latency", "sum_counters"]


def merge_latency(parts: Iterable[Optional[LatencyStats]]
                  ) -> LatencyStats:
    """Pool per-shard latency accumulators into one exact summary.

    Built on :meth:`LatencyStats.merge`: samples are pooled, so merged
    percentiles are exact and independent of shard boundaries or
    completion order.  ``None`` entries (failed shards) are skipped.
    """
    merged = LatencyStats()
    for part in parts:
        if part is not None:
            merged.merge(part)
    return merged


def sum_counters(parts: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Fold per-shard counter dicts by summation, keys sorted so the
    merged dict's iteration order is deterministic."""
    totals: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            totals[key] = totals.get(key, 0) + value
    return {key: totals[key] for key in sorted(totals)}
