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

from repro.domains import between, check_args, positive
from repro.sim.rng import Stream

#: Measured constants from Section 4.4.
TCP_OVERHEAD_S = 0.015
MEAN_HIT_S = 0.027
MISS_MIN_S = 0.100
MISS_MAX_S = 100.0
#: the exponential remainder's rate: the `1.0 / mean` that
#: `Stream.exponential(mean)` would divide out on every draw
HIT_RATE = 1.0 / (MEAN_HIT_S - TCP_OVERHEAD_S)


class HarvestLatencyModel:
    """Draws hit service times and miss penalties.

    A hit is the measured TCP overhead plus an exponential remainder; a
    miss is a Pareto draw from ``miss_min_s`` clamped at ``MISS_MAX_S``.
    The parameters are checked here, once: a draw is one bound call
    into the stream (callers on the request path bind :meth:`hit_time`
    / :meth:`miss_penalty` themselves), and the parameters are not to
    be reassigned afterwards.
    """

    #: the domain of each parameter; the miss range must not be empty
    DOMAINS = {"miss_min_s": between(0, MISS_MAX_S, lo_open=True),
               "miss_alpha": positive()}

    def __init__(self, rng: Stream, miss_min_s: float = MISS_MIN_S,
                 miss_alpha: float = 1.1) -> None:
        check_args(self.DOMAINS, miss_min_s=miss_min_s,
                   miss_alpha=miss_alpha)
        self.miss_min_s = miss_min_s
        self.miss_alpha = miss_alpha
        self._expovariate = rng.expovariate_draw()
        self._paretovariate = rng.paretovariate_draw()

    def hit_time(self) -> float:
        """Service time for a cache hit (seconds)."""
        return TCP_OVERHEAD_S + self._expovariate(HIT_RATE)

    def miss_penalty(self) -> float:
        """Time to fetch the object from the Internet (seconds)."""
        penalty = self.miss_min_s * self._paretovariate(self.miss_alpha)
        # min(penalty, MISS_MAX_S), as a comparison
        return MISS_MAX_S if MISS_MAX_S < penalty else penalty
