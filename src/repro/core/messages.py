"""SNS protocol messages.

All coordination state in the SNS layer is *soft*: it lives in these
messages and in caches of them, never on disk.  Beacons and load reports
are periodically refreshed, so any component can crash and rebuild its
view "typically by listening to multicasts from other components"
(Section 2.2.4).

Because this is an in-process simulation, messages carry direct object
references (e.g. a worker stub) where a real deployment would carry
host:port addresses; the *timing* of every message still crosses the
simulated SAN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Well-known multicast group names (the "level of indirection" that
#: relieves components of having to locate each other, Section 3.1.2).
BEACON_GROUP = "sns.manager.beacons"
MONITOR_GROUP = "sns.monitor.reports"
#: used only by the *distributed* balancing ablation (Section 2.2.2):
#: workers announce their own load to every front end, manager-free.
WORKER_ANNOUNCE_GROUP = "sns.worker.announcements"
#: Paxos traffic between manager replicas (consensus backend only).
#: Rides the same unreliable multicast as the beacons — the protocol,
#: not the transport, provides the reliability.
CONSENSUS_GROUP = "sns.manager.consensus"

#: Nominal wire sizes (bytes) used for SAN accounting.
BEACON_BYTES = 512
REPORT_BYTES = 96
REGISTER_BYTES = 160
CONSENSUS_BYTES = 224


@dataclass
class LoadReport:
    """Periodic worker -> manager load announcement.

    "Distiller load is characterized in terms of the queue length at the
    distiller, optionally weighted by the expected cost of distilling
    each item" (Section 3.1.2, footnote 2).
    """

    worker_name: str
    worker_type: str
    node_name: str
    queue_length: int
    weighted_load: float
    sent_at: float
    #: worker-measured EWMA of wall-clock service time (queue wait
    #: excluded); 0.0 until the first request completes.  Latency-aware
    #: routing policies use it as a cold-start prior.
    service_ewma_s: float = 0.0


@dataclass
class WorkerAdvert:
    """One worker's entry in a manager beacon: location plus the
    manager's smoothed view of its load."""

    worker_name: str
    worker_type: str
    node_name: str
    stub: Any
    queue_avg: float
    last_report_at: float
    #: relayed from the worker's load reports (see LoadReport).
    service_ewma_s: float = 0.0


@dataclass
class ManagerBeacon:
    """Manager's periodic multicast: existence + load-balancing hints.

    ``incarnation`` distinguishes a restarted manager from the one that
    crashed, so workers know to re-register.
    """

    manager_id: str
    incarnation: int
    manager: Any
    sent_at: float
    adverts: Dict[str, WorkerAdvert] = field(default_factory=dict)
    #: consensus backend only: absolute sim time through which the
    #: sending leader holds the majority lease.  Stubs must not route on
    #: these hints past this time (they stall instead); ``None`` means
    #: the soft-state manager, which promises no staleness bound.
    lease_until: Optional[float] = None


@dataclass
class RegisterWorker:
    """Worker -> manager registration (on startup or new-manager beacon)."""

    worker_name: str
    worker_type: str
    node_name: str
    stub: Any


@dataclass
class RegisterFrontEnd:
    """Front end -> manager registration, recruiting the manager as the
    front end's process peer."""

    frontend_name: str
    node_name: str
    frontend: Any


@dataclass
class MonitorReport:
    """Component -> monitor state report (multicast, best-effort)."""

    component: str
    kind: str
    sent_at: float
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass
class WorkEnvelope:
    """One request handed to a worker stub.

    ``reply`` is succeeded with the worker's result Content or failed
    with the worker's error; the sender guards it with a timeout (stale
    hints may route to a dead worker — "the request will time out and
    another worker will be chosen").
    """

    request_id: int
    tacc_request: Any
    reply: Any
    submitted_at: float
    input_bytes: int
    expected_cost_s: float = 0.0
    #: absolute deadline propagated from the dispatching front end;
    #: ``None`` means unbounded.  Stages past the deadline may shed the
    #: request — the client has already fallen back.
    deadline_at: Optional[float] = None
    #: causal trace context (a repro.obs Span) threaded across the SAN
    #: hop; ``None`` when tracing is off or the request is unsampled.
    trace: Optional[Any] = None
    #: request priority class ("interactive" or "batch"): carried so
    #: downstream stages can favour interactive work under overload.
    priority: str = "interactive"
    #: set by the receiving stub when the envelope joins its queue, so
    #: the service loop can close the queueing span.
    enqueued_at: Optional[float] = None
