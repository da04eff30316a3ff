"""Passive outlier ejection: route around gray-slow workers.

A worker whose observed latency is a *peer-relative* outlier — or whose
recent timeout count is, while its peers' are not — gets temporarily
ejected from the candidate set, long before the Supervisor's probe
machinery decides to restart it.  This is the load-balancer-level
circuit breaker from the Envoy/Finagle lineage: detection is entirely
passive (the stub already sees every reply and timeout), ejection is
temporary with exponential back-off per repeat offender, and re-entry
is probationary — an ejected worker re-admits with its history cleared
and must re-offend on fresh samples to be ejected again.

Peer-relativity is what makes this safe under global overload: when
*every* worker is slow (the cluster is saturated, not sick), nobody is
an outlier and nothing is ejected.  Fail-open likewise: if ejection
would empty the candidate set, the full set is used.

The wrapper composes over any base policy (``"ewma+eject"``,
``"lottery+eject"``); it draws no randomness, so it never perturbs the
wrapped policy's stream usage.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.balance.policies import EWMA_ALPHA, RoutingPolicy

#: eject when a worker's observed-latency EWMA exceeds this multiple of
#: the peer median, and only while at least OUTLIER_MIN_PEERS peers are
#: in play (peer-relative by construction: global slowness ejects nobody).
OUTLIER_LATENCY_RATIO = 3.0
OUTLIER_MIN_PEERS = 3
#: a latency outlier is judged only after this many local samples.
OUTLIER_MIN_SAMPLES = 8
#: timeouts within OUTLIER_WINDOW_S that eject a worker (unless
#: timeouts are cluster-wide).
OUTLIER_TIMEOUT_THRESHOLD = 3
#: the window timeouts are counted in (and a repeat offence forgiven).
OUTLIER_WINDOW_S = 10.0
#: first ejection duration; doubles per repeat offence up to the max.
#: Re-admission is probationary (history cleared).
OUTLIER_EJECTION_S = 5.0
OUTLIER_MAX_EJECTION_S = 60.0


class _WorkerHealth:
    """Ejector-side passive health record for one worker."""

    __slots__ = ("ewma_s", "samples", "timeout_at", "ejected_until",
                 "ejection_count", "last_ejection_end", "ejections",
                 "ejected_ats")

    def __init__(self) -> None:
        self.ewma_s: Optional[float] = None
        self.samples = 0
        self.timeout_at: List[float] = []
        self.ejected_until = 0.0
        self.ejection_count = 0
        self.last_ejection_end: Optional[float] = None
        self.ejections = 0
        self.ejected_ats: List[float] = []


class OutlierEjector(RoutingPolicy):
    """Wrap a base policy; filter outlier workers out of its view."""

    needs_key = False  # property below consults the inner policy

    def __init__(self, inner: RoutingPolicy) -> None:
        self.inner = inner
        self.name = f"{inner.name}+eject"
        self.needs_key = inner.needs_key
        self.health: Dict[str, _WorkerHealth] = {}
        # counters
        self.ejections = 0
        self.fail_opens = 0
        self.first_ejection_at: Optional[float] = None

    # -- feedback ----------------------------------------------------------

    def _record(self, worker_name: str) -> _WorkerHealth:
        record = self.health.get(worker_name)
        if record is None:
            record = self.health[worker_name] = _WorkerHealth()
        return record

    def on_submit(self, worker_name: str, now: float) -> None:
        self.inner.on_submit(worker_name, now)

    def on_reply(self, worker_name: str, now: float,
                 latency_s: float) -> None:
        record = self._record(worker_name)
        if record.ewma_s is None:
            record.ewma_s = latency_s
        else:
            record.ewma_s = (EWMA_ALPHA * latency_s
                             + (1.0 - EWMA_ALPHA) * record.ewma_s)
        record.samples += 1
        self.inner.on_reply(worker_name, now, latency_s)

    def on_timeout(self, worker_name: str, now: float) -> None:
        self._record(worker_name).timeout_at.append(now)
        self.inner.on_timeout(worker_name, now)

    def on_worker_removed(self, worker_name: str) -> None:
        # keep the health record: a restarted worker re-registers under
        # a NEW name (spawn sequence), so same-name reappearance is the
        # same process and its record still applies
        self.inner.on_worker_removed(worker_name)

    # -- ejection decisions ------------------------------------------------

    def _recent_timeouts(self, record: _WorkerHealth, now: float) -> int:
        cutoff = now - OUTLIER_WINDOW_S
        if record.timeout_at and record.timeout_at[0] < cutoff:
            record.timeout_at = [t for t in record.timeout_at
                                 if t >= cutoff]
        return len(record.timeout_at)

    def _eject(self, record: _WorkerHealth, now: float) -> None:
        if (record.last_ejection_end is not None
                and now - record.last_ejection_end > OUTLIER_WINDOW_S):
            # clean through its probation window: forgive old offences
            record.ejection_count = 0
        duration = min(OUTLIER_MAX_EJECTION_S,
                       OUTLIER_EJECTION_S * (2.0 ** record.ejection_count))
        record.ejected_until = now + duration
        record.last_ejection_end = record.ejected_until
        record.ejection_count += 1
        record.ejections += 1
        record.ejected_ats.append(now)
        # probation: history resets, re-ejection needs fresh evidence
        record.ewma_s = None
        record.samples = 0
        record.timeout_at = []
        self.ejections += 1
        if self.first_ejection_at is None:
            self.first_ejection_at = now

    def _evaluate(self, candidates: Sequence[Any], now: float) -> None:
        names = [state.advert.worker_name for state in candidates]
        active = [name for name in names
                  if self._record(name).ejected_until <= now]
        if len(active) < OUTLIER_MIN_PEERS:
            return
        # latency outliers, relative to the peer median
        sampled = [(name, self.health[name].ewma_s) for name in active
                   if self.health[name].samples >= OUTLIER_MIN_SAMPLES]
        if len(sampled) >= OUTLIER_MIN_PEERS:
            latencies = sorted(ewma for _, ewma in sampled)
            mid = len(latencies) // 2
            if len(latencies) % 2:
                median = latencies[mid]
            else:
                median = 0.5 * (latencies[mid - 1] + latencies[mid])
            if median > 0:
                for name, ewma in sampled:
                    if ewma > OUTLIER_LATENCY_RATIO * median:
                        self._eject(self.health[name], now)
        # timeout outliers: eject heavy timers unless timeouts are the
        # cluster-wide condition (then ejection would only shrink an
        # already-failing pool)
        counts = {name: self._recent_timeouts(self.health[name], now)
                  for name in active}
        offenders = [name for name, count in counts.items()
                     if count >= OUTLIER_TIMEOUT_THRESHOLD]
        if offenders and len(offenders) * 2 < len(active):
            for name in offenders:
                record = self.health[name]
                if record.ejected_until <= now:
                    self._eject(record, now)

    # -- selection ---------------------------------------------------------

    def select(self, candidates: Sequence[Any], now: float,
               key: Optional[str]) -> Any:
        self._evaluate(candidates, now)
        admissible = [
            state for state in candidates
            if self._record(state.advert.worker_name).ejected_until
            <= now
        ]
        if not admissible:
            # fail open: an empty candidate set is worse than a slow one
            self.fail_opens += 1
            admissible = list(candidates)
        return self.inner.select(admissible, now, key)

    def stats(self) -> Dict[str, Any]:
        out = dict(self.inner.stats())
        out["ejections"] = self.ejections
        out["fail_opens"] = self.fail_opens
        if self.first_ejection_at is not None:
            out["first_ejection_at"] = self.first_ejection_at
        ejected = {name: record.ejected_ats[0]
                   for name, record in sorted(self.health.items())
                   if record.ejections > 0}
        if ejected:
            out["ejected_workers"] = ejected
            out["ejection_times"] = {
                name: tuple(record.ejected_ats)
                for name, record in sorted(self.health.items())
                if record.ejections > 0}
        return out
