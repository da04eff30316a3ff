"""Overload-amplification guards: retry budget and circuit breaker.

Overload rarely stays the size it started.  Two classic feedback loops
amplify it: *retry storms* (every timeout begets a retry, so offered
load grows exactly when capacity shrinks) and *origin hammering*
(every cache miss queues behind a slow or dead origin, holding a
front-end thread hostage for seconds).  The two guards here cut those
loops:

* :class:`RetryBudget` — a token bucket earned by fresh requests and
  spent by retries, capping retries to a configured *fraction* of
  first attempts so retry traffic can never exceed a fixed share of
  offered load;
* :class:`CircuitBreaker` — a closed/open/half-open state machine on
  origin fetches: after enough consecutive failures (errors *or*
  slow responses) the breaker opens and fetches fail fast, until a
  cooldown elapses and a single half-open probe tests the water.

Both are deterministic — no randomness, no wall clock — so runs stay
byte-identical under ``repro.fanout``.
"""

from __future__ import annotations

from repro.domains import at_least, check_args, count, positive


class RetryBudget:
    """Token bucket capping retries to a fraction of fresh requests.

    Every first attempt earns ``ratio`` tokens (up to ``cap``); every
    retry spends one.  With ratio 0.1, at most ~10% of offered load
    can be retry traffic, no matter how many timeouts pile up.  The
    bucket starts full so a cold stub can still retry its first
    isolated failure.
    """

    #: the domain of each constructor argument.
    DOMAINS = {"ratio": at_least(0), "cap": at_least(1)}

    def __init__(self, ratio: float, cap: float) -> None:
        check_args(self.DOMAINS, ratio=ratio, cap=cap)
        self.ratio = ratio
        self.cap = cap
        self.tokens = cap
        self.earned = 0
        self.spent = 0
        self.denials = 0

    def earn(self) -> None:
        """A fresh (first-attempt) request arrived: accrue budget."""
        self.earned += 1
        self.tokens = min(self.cap, self.tokens + self.ratio)

    def try_spend(self) -> bool:
        """Spend one token for a retry; False = budget exhausted."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denials += 1
        return False


class CircuitBreaker:
    """Closed/open/half-open breaker on a slow or failing dependency.

    State machine::

        CLOSED --(failure_threshold consecutive failures)--> OPEN
        OPEN   --(cooldown elapses)--> HALF_OPEN (one probe admitted)
        HALF_OPEN --(probe succeeds)--> CLOSED
        HALF_OPEN --(probe fails)-----> OPEN (cooldown restarts)

    A "failure" is an error *or* a success slower than ``slow_s`` —
    a dependency that answers in 6 s under a 3 s budget is down in
    every way that matters to the thread waiting on it.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    #: the domain of each constructor argument but the clock.
    DOMAINS = {"failure_threshold": count(1), "cooldown_s": positive(),
               "slow_s": positive()}

    def __init__(self, clock, failure_threshold: int, cooldown_s: float,
                 slow_s: float) -> None:
        check_args(self.DOMAINS, failure_threshold=failure_threshold,
                   cooldown_s=cooldown_s, slow_s=slow_s)
        #: zero-argument callable returning the current sim time.
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.slow_s = slow_s
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self._probe_in_flight = False
        # counters
        self.opens = 0
        self.short_circuits = 0
        self.probes = 0

    def allow(self) -> bool:
        """May a fetch proceed right now?

        In OPEN, admits nothing until the cooldown elapses, then
        transitions to HALF_OPEN and admits exactly one probe.
        """
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self.clock() - self.opened_at >= self.cooldown_s:
                self.state = self.HALF_OPEN
                self._probe_in_flight = False
            else:
                self.short_circuits += 1
                return False
        # HALF_OPEN: exactly one probe at a time
        if self._probe_in_flight:
            self.short_circuits += 1
            return False
        self._probe_in_flight = True
        self.probes += 1
        return True

    def record(self, elapsed_s: float, ok: bool) -> None:
        """Report the outcome of an admitted fetch."""
        failed = (not ok) or elapsed_s >= self.slow_s
        if self.state == self.HALF_OPEN:
            self._probe_in_flight = False
            if failed:
                self._trip()
            else:
                self.state = self.CLOSED
                self.consecutive_failures = 0
            return
        if failed:
            self.consecutive_failures += 1
            if self.state == self.CLOSED \
                    and self.consecutive_failures >= self.failure_threshold:
                self._trip()
        else:
            self.consecutive_failures = 0

    def _trip(self) -> None:
        self.state = self.OPEN
        self.opened_at = self.clock()
        self.opens += 1
        self.consecutive_failures = 0
