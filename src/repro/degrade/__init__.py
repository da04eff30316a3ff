"""Graceful degradation under overload (brownout control).

The paper's BASE argument (Section 2.3.1) is that a saturated service
should *degrade* — trade harvest (completeness/fidelity of each
answer) for yield (fraction of requests answered) — rather than fail.
This package turns that argument into a closed control loop:

* :mod:`repro.degrade.ladder` — the ordered degradation levels;
* :mod:`repro.degrade.controller` — the
  :class:`~repro.degrade.controller.DegradationController` sampling
  queue delay, utilization, and shed rate each tick and walking the
  ladder deterministically;
* :mod:`repro.degrade.guards` — the overload-amplification guards:
  a per-frontend retry budget and an origin-fetch circuit breaker;
* :mod:`repro.degrade.staleness` — a freshness-aware cache used for
  the serve-stale ladder level;
* :mod:`repro.degrade.service` — a degradation-aware bench service
  (and a brownout distiller whose cost actually drops with quality).

DESIGN.md §5j documents the ladder, the controller's pressure signal,
and the guard state machines.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "controller": ("DegradationController",),
    "guards": ("CircuitBreaker", "RetryBudget"),
    "ladder": ("LEVELS", "level_name"),
    "staleness": ("FreshnessCache",),
})

__all__ = [
    "CircuitBreaker",
    "DegradationController",
    "FreshnessCache",
    "LEVELS",
    "RetryBudget",
    "level_name",
]
