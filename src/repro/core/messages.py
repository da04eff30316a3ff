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
from math import inf
from typing import Any, Dict, Optional

from repro.sim.kernel import PENDING, Event

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


class Request(Event):
    """One client request: the event ``FrontEnd.submit`` hands the client,
    fired with the ``Response``.  Each field has one writer (DESIGN.md
    5l): ``record`` is set by ``FrontEnd.submit``, ``trace`` (the
    service span) by ``FrontEnd._handle``, and ``deadline_at`` (past
    which worker stubs shed its work) by ``ManagerStub.dispatch``."""

    __slots__ = ("record", "trace", "deadline_at")

    def __init__(self, env: Any, record: Any) -> None:
        self.env = env  # Event's fields inline: one call, not two
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.record = record
        self.trace: Optional[Any] = None
        self.deadline_at = inf


class WorkEnvelope(Event):
    """One dispatch attempt of a :class:`Request`, and its own reply: the
    worker stub succeeds it with the result or fails it with the
    worker's error, and the sender guards it with a timeout ("the
    request will time out and another worker will be chosen").
    ``trace`` is the dispatch span; the accepting stub writes
    ``cost_s`` (the worker's estimate, the load metric's weight) and
    ``enqueued_at``."""

    __slots__ = ("request", "work", "trace", "cost_s", "enqueued_at")

    def __init__(self, env: Any, request: Request, work: Any,
                 trace: Optional[Any] = None) -> None:
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.request = request
        self.work = work
        self.trace = trace
        self.cost_s = 0.0
        self.enqueued_at = 0.0
