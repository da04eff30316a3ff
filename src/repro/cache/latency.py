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

from repro.domains import at_least, check_args, positive
from repro.sim.rng import Stream

#: Measured constants from Section 4.4.
TCP_OVERHEAD_S = 0.015
MEAN_HIT_S = 0.027
MISS_MIN_S = 0.100
MISS_MAX_S = 100.0


class HarvestLatencyModel:
    """Draws hit service times and miss penalties.

    The parameters are checked and the rates fixed here, once: a draw is
    one bound call into the stream (callers on the request path bind
    :meth:`hit_time` / :meth:`miss_penalty` themselves), and the
    parameters are not to be reassigned afterwards.
    """

    #: the domain of each parameter; the hit time must also exceed the
    #: TCP overhead, and the miss range must not be empty.
    DOMAINS = {"mean_hit_s": positive(), "tcp_overhead_s": at_least(0),
               "miss_min_s": positive(), "miss_max_s": positive(),
               "miss_alpha": positive()}

    def __init__(self, rng: Stream,
                 mean_hit_s: float = MEAN_HIT_S,
                 tcp_overhead_s: float = TCP_OVERHEAD_S,
                 miss_min_s: float = MISS_MIN_S,
                 miss_max_s: float = MISS_MAX_S,
                 miss_alpha: float = 1.1) -> None:
        check_args(self.DOMAINS, mean_hit_s=mean_hit_s,
                   tcp_overhead_s=tcp_overhead_s, miss_min_s=miss_min_s,
                   miss_max_s=miss_max_s, miss_alpha=miss_alpha)
        if mean_hit_s <= tcp_overhead_s:
            raise ValueError(f"mean_hit_s={mean_hit_s!r} must exceed "
                             f"tcp_overhead_s={tcp_overhead_s!r}")
        if miss_max_s < miss_min_s:
            raise ValueError(f"miss_max_s={miss_max_s!r} must be >= "
                             f"miss_min_s={miss_min_s!r}")
        self.mean_hit_s = mean_hit_s
        self.tcp_overhead_s = tcp_overhead_s
        self.miss_min_s = miss_min_s
        self.miss_max_s = miss_max_s
        self.miss_alpha = miss_alpha
        #: the exponential remainder's rate: the `1.0 / mean` that
        #: `Stream.exponential(mean)` would divide out on every draw
        self._hit_rate = 1.0 / (mean_hit_s - tcp_overhead_s)
        self._expovariate = rng.expovariate_draw()
        self._paretovariate = rng.paretovariate_draw()

    def hit_time(self) -> float:
        """Service time for a cache hit (seconds)."""
        return self.tcp_overhead_s + self._expovariate(self._hit_rate)

    def miss_penalty(self) -> float:
        """Time to fetch the object from the Internet (seconds)."""
        penalty = self.miss_min_s * self._paretovariate(self.miss_alpha)
        miss_max_s = self.miss_max_s
        # min(penalty, miss_max_s), as a comparison
        return miss_max_s if miss_max_s < penalty else penalty
