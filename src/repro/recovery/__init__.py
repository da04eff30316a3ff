"""Gray-failure modelling and self-healing supervision.

The chaos layer (:mod:`repro.chaos`) proves the soft-state machinery
survives *clean* faults: kills, node crashes, partitions — failures a
broken connection or a missed beacon reveals for free.  The paper's
actual operational incidents (Section 4.5) were nothing so polite:
distillers with memory leaks "cured" by periodic timer restarts, hung
distillers killed when the front-end stub's RPC timed out, a
load-balancer stall noticed only by end-to-end behavior.  These are
*gray* failures — the component stays up and keeps up appearances while
failing at its actual job — and the beacon/connection failure detectors
are structurally blind to them.

This package supplies both halves of the answer:

* :mod:`repro.recovery.gray` — injectable gray-failure state for worker
  processes: fail-slow, hang, zombie, leak, corrupt-output;
* :mod:`repro.recovery.policy` — the supervision policy knobs
  (probe cadence, outlier thresholds, restart budgets, exponential
  backoff, flap quarantine, rejuvenation timers);
* :mod:`repro.recovery.supervisor` — the supervisor component that
  detects gray failures through end-to-end health probes, RPC-timeout
  reports from manager stubs, and peer-relative load-outlier analysis,
  then heals them restart-first ("Cheap Recovery", PAPERS.md);
* :mod:`repro.recovery.ledger` — MTTD/MTTR/availability accounting per
  fault case, surfaced in chaos reports.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "gray": ("GrayState",),
    "ledger": ("FaultCase", "RecoveryLedger"),
    "policy": ("RecoveryPolicy",),
})

__all__ = [
    "FaultCase",
    "GrayState",
    "RecoveryLedger",
    "RecoveryPolicy",
]
