"""The Harvest cache latency model (Section 4.4).

The paper summarizes measured Harvest behaviour:

* "The average cache hit takes 27 ms to service, including network and
  OS overhead ... TCP connection and tear-down overhead is attributed to
  15 ms of this service time."
* "95 % of all cache hits take less than 100 ms to service" (low
  variation).
* "The miss penalty (i.e., the time to fetch data from the Internet)
  varies widely, from 100 ms through 100 seconds."

We model hit time as TCP overhead plus an exponential remainder tuned so
the mean is 27 ms and P95 lands under 100 ms, and miss penalty as a
bounded Pareto on [100 ms, 100 s] — heavy-tailed, as wide-area fetches
are.
"""

from __future__ import annotations

from repro.sim.rng import Stream

#: Measured constants from Section 4.4.
TCP_OVERHEAD_S = 0.015
MEAN_HIT_S = 0.027
MISS_MIN_S = 0.100
MISS_MAX_S = 100.0


class HarvestLatencyModel:
    """Draws hit service times and miss penalties."""

    def __init__(self, rng: Stream,
                 mean_hit_s: float = MEAN_HIT_S,
                 tcp_overhead_s: float = TCP_OVERHEAD_S,
                 miss_min_s: float = MISS_MIN_S,
                 miss_max_s: float = MISS_MAX_S,
                 miss_alpha: float = 1.1) -> None:
        if mean_hit_s <= tcp_overhead_s:
            raise ValueError("mean hit time must exceed TCP overhead")
        self.rng = rng
        self.mean_hit_s = mean_hit_s
        self.tcp_overhead_s = tcp_overhead_s
        self.miss_min_s = miss_min_s
        self.miss_max_s = miss_max_s
        self.miss_alpha = miss_alpha

    def hit_time(self) -> float:
        """Service time for a cache hit (seconds)."""
        remainder = self.rng.exponential(self.mean_hit_s -
                                         self.tcp_overhead_s)
        return self.tcp_overhead_s + remainder

    def miss_penalty(self) -> float:
        """Time to fetch the object from the Internet (seconds)."""
        penalty = self.rng.pareto(self.miss_alpha, self.miss_min_s)
        return min(penalty, self.miss_max_s)
