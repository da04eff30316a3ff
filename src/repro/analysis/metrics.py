"""Latency and throughput accumulators."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence


class LatencyStats:
    """Streaming-friendly latency summary (stores samples; the
    experiment scale here never needs sketches)."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError("latency must be non-negative")
        self._samples.append(value)
        self._sorted = False

    def extend(self, values: Iterable[float]) -> "LatencyStats":
        for value in values:
            self.add(value)
        return self

    @classmethod
    def from_samples(cls, values: Iterable[float]) -> "LatencyStats":
        return cls().extend(values)

    def merge(self, other: "LatencyStats") -> "LatencyStats":
        """Fold another accumulator's samples into this one.

        Percentiles of the merged set are exact (samples are pooled,
        not approximated), so callers aggregating per-arm or
        per-category stats no longer re-sort ad-hoc sample lists.
        """
        if other._samples:
            self._samples.extend(other._samples)
            self._sorted = False
        return self

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, fraction: float) -> float:
        """Linear-interpolated quantile, fraction in [0, 1]."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if not self._samples:
            return 0.0
        self._ensure_sorted()
        position = fraction * (len(self._samples) - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        if low == high:
            return self._samples[low]
        weight = position - low
        return (self._samples[low] * (1 - weight)
                + self._samples[high] * weight)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def maximum(self) -> float:
        self._ensure_sorted()
        return self._samples[-1] if self._samples else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


def summarize_outcomes(outcomes) -> Dict[str, float]:
    """Condense a playback engine's outcome list."""
    stats = LatencyStats()
    ok = 0
    failed = 0
    for outcome in outcomes:
        if outcome.ok and outcome.latency is not None:
            ok += 1
            stats.add(outcome.latency)
        elif not outcome.ok:
            failed += 1
    summary = stats.summary()
    summary["ok"] = float(ok)
    summary["failed"] = float(failed)
    total = ok + failed
    summary["success_rate"] = ok / total if total else 0.0
    return summary


def harvest_yield_series(outcomes, bucket_s: float
                         ) -> List[Dict[str, float]]:
    """Per-bucket harvest/yield over a playback run.

    The paper's availability frame (Section 2.3.1, and Fox & Brewer's
    "Harvest, Yield, and Scalable Tolerant Systems"): **yield** is the
    fraction of requests answered at all (ok or approximate fallback),
    **harvest** the fraction of answered requests carrying the full
    result rather than a BASE approximation.  A reply whose status is
    ``"error"`` (a shed request, an error page) answers nothing and
    counts against yield, exactly like a timeout.  Shed requests —
    error replies whose path starts with ``"shed"`` — are additionally
    broken out into their own column: a shed is a *yield* loss the
    admission controller chose, distinct from both a degraded answer
    (a *harvest* loss) and a generic error.  Requests are bucketed
    by *submission* time so a fault window's damage lands in the window
    that caused it.  Each row: ``{"start", "submitted", "answered",
    "degraded", "shed", "yield", "harvest"}``.
    """
    if bucket_s <= 0:
        raise ValueError("bucket width must be positive")
    if not outcomes:
        return []
    origin = min(outcome.submitted_at for outcome in outcomes)
    buckets: Dict[int, List[int]] = {}
    for outcome in outcomes:
        index = int((outcome.submitted_at - origin) / bucket_s)
        row = buckets.setdefault(index, [0, 0, 0, 0])
        row[0] += 1
        status = getattr(outcome.response, "status", "ok")
        if outcome.ok and status != "error":
            row[1] += 1
            if status != "ok":
                row[2] += 1
        elif str(getattr(outcome.response, "path",
                         "")).startswith("shed"):
            row[3] += 1
    series = []
    for index in range(max(buckets) + 1):
        submitted, answered, degraded, shed = buckets.get(
            index, (0, 0, 0, 0))
        series.append({
            "start": origin + index * bucket_s,
            "submitted": float(submitted),
            "answered": float(answered),
            "degraded": float(degraded),
            "shed": float(shed),
            "yield": answered / submitted if submitted else 1.0,
            "harvest": ((answered - degraded) / answered
                        if answered else 1.0),
        })
    return series


#: the yield a run has recovered to once it is back over it
RECOVERY_TARGET = 0.95


def yield_recovery_time(series: Sequence[Dict[str, float]],
                        heal_time: float) -> Optional[float]:
    """Seconds after ``heal_time`` until yield first reaches
    :data:`RECOVERY_TARGET` and stays there for the rest of the series;
    ``None`` if it never recovers.  Empty buckets (nothing submitted)
    count as recovered.
    """
    candidate: Optional[float] = None
    for row in series:
        if row["start"] + 1e-9 < heal_time:
            continue
        if row["submitted"] and row["yield"] < RECOVERY_TARGET:
            candidate = None
        elif candidate is None:
            candidate = max(0.0, row["start"] - heal_time)
    return candidate
