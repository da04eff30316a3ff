"""The supervision policy: the knobs of the self-healing layer, and as
module constants the ones no shipped caller sets to a second value
(core/config.py's rule).  The policy sweep's backstop sets five of the
six knobs; rejuvenation is the sixth.

The defaults encode restart-as-first-resort ("Cheap Recovery", PAPERS.md)
tempered by the two classic failure modes of automated recovery:

* **restart storms** — bounded by a per-window restart budget and
  exponential backoff between consecutive restarts on the same node;
* **flapping** — a node whose workers keep needing restarts is
  quarantined from future placement (the fault is probably the machine,
  not the process) until an operator reboots it.

Rejuvenation (the Section 4.5 "cured by periodic restarts" policy) is
**off by default**: proactive restarts change scheduling even in
fault-free runs, and the determinism contract is that supervision with
no faults injected is byte-identical to no supervision at all.  Campaigns
that want it opt in with ``rejuvenation_interval_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.domains import at_least, check_fields, checked, count, positive

#: a probe unanswered (or still in service) past this is a failure.
PROBE_TIMEOUT_S = 1.0
#: fixed network round trip charged to a probe.  Probes deliberately
#: bypass the shared SAN links: :class:`~repro.sim.network.Link`
#: reservations are stateful, so metering probe bytes there would
#: perturb request traffic and break the determinism contract.
PROBE_RTT_S = 0.002
#: sliding window for counting suspicion events per detector.
SUSPICION_WINDOW_S = 10.0
#: seconds between scans of the manager's load table.
OUTLIER_INTERVAL_S = 1.0
#: the outlier condition must hold continuously this long.
OUTLIER_SUSTAIN_S = 3.0
#: a probe whose service time exceeds this multiple of the worker's own
#: nominal cost counts as a probe failure even when it answers inside
#: the timeout — the detector for moderate fail-slow/leak inflation
#: that never trips an RPC timeout.
PROBE_SLOW_RATIO = 3.0
#: minimum same-type peers before the load-outlier detector's relative
#: comparison means anything (not the ejector's
#: ``repro.balance.ejection.OUTLIER_MIN_PEERS``).
LOAD_OUTLIER_MIN_PEERS = 3
#: exponential backoff between consecutive restarts on one node: first
#: restart is immediate, the n-th waits
#: ``RESTART_BACKOFF_BASE_S * RESTART_BACKOFF_FACTOR**(n-2)`` capped at
#: ``RESTART_BACKOFF_CAP_S``.
RESTART_BACKOFF_BASE_S = 0.5
RESTART_BACKOFF_FACTOR = 2.0
RESTART_BACKOFF_CAP_S = 10.0
#: restarts allowed per RESTART_BUDGET_WINDOW_S before the supervisor
#: stops healing and pages instead.
RESTART_BUDGET = 8
RESTART_BUDGET_WINDOW_S = 60.0
#: restarts on one node within FLAP_WINDOW_S before the node is
#: quarantined from future worker placement.
FLAP_THRESHOLD = 3
FLAP_WINDOW_S = 30.0
#: beacon intervals to wait for a replacement to register before
#: declaring the heal failed.
HEAL_WAIT_PERIODS = 40


@dataclass
class RecoveryPolicy:
    """Knobs for the :class:`~repro.recovery.supervisor.Supervisor`."""

    # -- end-to-end health probes ------------------------------------------
    #: seconds between probe sweeps over the live worker population.
    probe_interval_s: float = checked(2.0, positive())
    #: consecutive probe failures before the worker is restarted.
    probe_confirmations: int = checked(2, count(1))

    # -- RPC-timeout reports from manager stubs ----------------------------
    #: dispatch timeouts against one worker within
    #: :data:`SUSPICION_WINDOW_S` before the stub's report alone
    #: triggers a restart ("the RPC call to the distiller times out and
    #: the distiller is restarted").
    rpc_timeout_confirmations: int = checked(2, count(1))

    # -- peer-relative load-outlier detection ------------------------------
    #: a worker is an outlier when its queue average exceeds
    #: ``max(outlier_floor, outlier_ratio * peer_median)``.
    outlier_ratio: float = checked(3.0, at_least(1))
    #: absolute queue floor below which nobody is an outlier (protects
    #: against ratio-vs-zero-median false positives at idle).
    outlier_floor: float = checked(4.0, at_least(0))

    # -- rejuvenation -------------------------------------------------------
    #: proactively restart the oldest idle worker every this many
    #: seconds (the Section 4.5 memory-leak cure).  ``None`` disables —
    #: the default, to preserve fault-free determinism.
    rejuvenation_interval_s: Optional[float] = checked(
        None, positive(optional=True))

    def validate(self) -> "RecoveryPolicy":
        """Refuse a knob outside its declared domain, naming it."""
        check_fields(self)
        return self
