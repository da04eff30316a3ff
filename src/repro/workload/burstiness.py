"""Burstiness analysis and overflow-pool provisioning (Section 4.2).

Figure 6 buckets the trace at three scales (2 minutes, 30 seconds,
1 second) and reports average and peak rates.  Section 4.2 then gives the
operator two "administrative avenues" for sizing the dedicated worker
pool against the overflow pool:

1. pick a target *utilization* — draw a horizontal line (tasks/sec) such
   that the fraction of traffic under the line equals the target
   (:func:`utilization_line`);
2. pick an acceptable *overflow frequency* — draw the line such that the
   fraction of buckets exceeding it equals that percentage
   (:func:`overflow_line_for_fraction`).

The paper notes these are not interchangeable ("the utilization level
cannot necessarily be predicted given a certain acceptable percentage,
and vice-versa") — the report function returns both so the experiment
can show the difference.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.workload.trace import TraceRecord


def bucket_counts(records: Sequence[TraceRecord],
                  bucket_s: float) -> List[int]:
    """Requests per bucket of width ``bucket_s`` across the trace span."""
    if bucket_s <= 0:
        raise ValueError("bucket width must be positive")
    if not records:
        return []
    start = records[0].timestamp
    end = records[-1].timestamp
    n_buckets = int((end - start) / bucket_s) + 1
    counts = [0] * n_buckets
    for record in records:
        index = int((record.timestamp - start) / bucket_s)
        counts[index] += 1
    return counts


def rates_from_counts(counts: Sequence[int],
                      bucket_s: float) -> List[float]:
    return [count / bucket_s for count in counts]


def utilization_line(counts: Sequence[int], bucket_s: float,
                     target_utilization: float) -> float:
    """Tasks/sec line such that traffic *under* the line is the given
    fraction of all traffic (administrative avenue #1).

    Traffic under a line L (in tasks/sec) is sum(min(rate_i, L)) over
    buckets; we binary-search L so that this equals
    target_utilization * total.
    """
    if not 0.0 < target_utilization <= 1.0:
        raise ValueError("target utilization must be in (0, 1]")
    rates = rates_from_counts(counts, bucket_s)
    if not rates:
        return 0.0
    total = sum(rates)
    if total == 0:
        return 0.0
    low, high = 0.0, max(rates)

    def under(line: float) -> float:
        return sum(min(rate, line) for rate in rates)

    target = target_utilization * total
    for _ in range(60):
        mid = (low + high) / 2.0
        if under(mid) < target:
            low = mid
        else:
            high = mid
    return high


def overflow_line_for_fraction(counts: Sequence[int], bucket_s: float,
                               overflow_fraction: float) -> float:
    """Tasks/sec line exceeded by the given fraction of buckets
    (administrative avenue #2) — i.e. the (1 - f) rate quantile."""
    if not 0.0 <= overflow_fraction <= 1.0:
        raise ValueError("overflow fraction must be in [0, 1]")
    rates = sorted(rates_from_counts(counts, bucket_s))
    if not rates:
        return 0.0
    index = int(math.ceil((1.0 - overflow_fraction) * len(rates))) - 1
    index = max(0, min(len(rates) - 1, index))
    return rates[index]


def index_of_dispersion(counts: Sequence[int]) -> float:
    """Variance-to-mean ratio of bucket counts.

    1.0 for a Poisson process; substantially above 1 for bursty
    (self-similar) traffic.  Comparing the index across aggregation
    scales is the quick self-similarity check used in the tests.
    """
    if not counts:
        return 0.0
    n = len(counts)
    mean = sum(counts) / n
    if mean == 0:
        return 0.0
    variance = sum((count - mean) ** 2 for count in counts) / n
    return variance / mean


def burstiness_report(records: Sequence[TraceRecord],
                      scales_s: Sequence[float] = (120.0, 30.0, 1.0)
                      ) -> Dict[float, Dict[str, float]]:
    """Average and peak request rates at each bucketing scale — the
    numbers quoted in the Figure 6 caption."""
    report = {}
    for scale in scales_s:
        counts = bucket_counts(records, scale)
        rates = rates_from_counts(counts, scale)
        report[scale] = {
            "buckets": float(len(counts)),
            "avg_rps": sum(rates) / len(rates) if rates else 0.0,
            "peak_rps": max(rates) if rates else 0.0,
            "dispersion": index_of_dispersion(counts),
        }
    return report
