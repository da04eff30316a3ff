"""The front end: the SNS's interface to the outside world.

"Front Ends provide the interface to the SNS as seen by the outside
world ... They 'shepherd' incoming requests by matching them up with the
appropriate user profile from the customization database, and queueing
them for service by one or more workers" (Section 2.1).  The front end
owns all control flow — workers stay simple — so "the behavior of the
service as a whole [is] defined almost entirely in the front end"; the
service-specific part is delegated to a *service logic* object with a
``handle(frontend, request)`` process generator (the Service layer).

Infrastructure modelled here, per the paper's measurements:

* a **thread pool** (~400 threads in production) bounding concurrent
  requests;
* a per-request **connection overhead** through the front end's network
  stack — the serial resource that tops a front end out near 70
  requests/second on 100 Mb/s Ethernet (Section 4.6, footnote 5: "TCP
  connection setup and processing overhead is the dominating factor");
* byte accounting on the front end's **access link**, so response
  traffic can genuinely saturate a slow segment;
* an embedded :class:`~repro.core.manager_stub.ManagerStub`, plus the
  process-peer duty: "The front end detects and restarts a crashed
  manager."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.component import Component
from repro.core.config import (
    BEACON_LOSS_TOLERANCE,
    DEGRADE_DEADLINE_S,
    REQUEST_OVERHEAD_BYTES,
    SNSConfig,
)
from repro.core.manager_stub import ManagerStub
from repro.core.messages import (
    BEACON_GROUP,
    REPORT_BYTES,
    ManagerBeacon,
    RegisterFrontEnd,
    Request,
)
from repro.sim.cluster import Cluster
from repro.sim.kernel import PENDING, Interrupt
from repro.sim.network import Link
from repro.sim.node import Node
from repro.sim.transport import Channel, ChannelClosed


@dataclass
class Response:
    """What the front end hands back to a client."""

    status: str                 # "ok" | "fallback" | "degraded" | "error"
    path: str                   # e.g. "cache-hit", "distilled", "original"
    content: Any = None
    size_bytes: int = 0
    detail: str = ""
    annotations: Dict[str, Any] = field(default_factory=dict)


class FrontEnd(Component):
    """HTTP interface + request shepherd + process peer of the manager."""

    kind = "frontend"

    def __init__(
        self,
        cluster: Cluster,
        node: Node,
        name: str,
        config: SNSConfig,
        service: Any,
        fabric: Any,
        access_link: Optional[Link] = None,
    ) -> None:
        super().__init__(cluster, node, name)
        self.config = config
        self.service = service
        self.fabric = fabric
        self.access_link = access_link
        self.stub = ManagerStub(
            cluster, config, name,
            cluster.streams.stream(f"lottery:{name}"), node=node)
        # the kernel/TCP serial resource: capacity 1/overhead requests/s
        self.netstack = Link(
            cluster.env, f"{name}.netstack",
            bandwidth_bps=1.0 / config.frontend_connection_overhead_s,
            latency_s=0.0)
        self.threads = cluster.env.queue()
        for index in range(config.frontend_threads):
            self.threads.put_nowait(index)
        self._manager_endpoint = None
        #: brownout controller (repro.degrade), wired by the fabric;
        #: None = no degradation ladder on this front end.
        self.degradation = None
        #: hysteresis state for _should_shed: True while a shedding
        #: episode is in progress (admission_exit_backlog_s mode).
        self._shedding = False
        self._shed_rng = cluster.streams.stream(f"degrade:shed:{name}")
        # counters
        self.requests_received = 0
        self.responses_sent = 0
        self.fallbacks = 0
        self.errors = 0
        self.shed = 0
        #: degraded (reduced-harvest) replies: answered, but below full
        #: fidelity/freshness — the BASE trade, counted apart from
        #: fallbacks and errors.
        self.degraded = 0
        #: sheds by reason, under the degradation ladder's top rungs.
        self.shed_priority = 0
        self.shed_deadline = 0

    # -- client entry ------------------------------------------------------------

    def submit(self, record: Any) -> Request:
        """Accept one client request; returns its :class:`Request`, the
        event that fires with the :class:`Response`.

        A dead front end returns a request that never fires — clients
        (or their client-side balancing script) time out and try another
        front end.
        """
        request = Request(self.env, record)
        if not self.alive:
            return request
        self.requests_received += 1
        # skip the ingress-span machinery entirely when tracing is off:
        # submit() runs once per request, so the guard lives here
        tracer = self.env.tracer
        span = (None if tracer is None
                else tracer.ingress_span("frontend", self.name))
        if self._should_shed():
            # load-shedding admission control: a fast "busy" answer
            # costs nothing, while queueing toward certain timeout
            # burns a thread and netstack time better spent on
            # requests that can still meet their deadline
            self.shed += 1
            self.errors += 1
            if span is not None:
                span.annotate(shed=True).finish()
            request.succeed(Response(
                status="error", path="shed",
                detail="admission control: front end saturated"))
            return request
        shed_path = self._ladder_shed(record)
        if shed_path is not None:
            self.shed += 1
            self.errors += 1
            if span is not None:
                span.annotate(shed=True, shed_path=shed_path).finish()
            request.succeed(Response(
                status="error", path=shed_path,
                detail="admission control: degraded service"))
            return request
        self.spawn(self._handle(request, span))
        return request

    def _should_shed(self) -> bool:
        max_backlog = self.config.admission_max_backlog_s
        if max_backlog is None:
            return False
        exit_backlog = self.config.admission_exit_backlog_s
        if exit_backlog is None:
            # legacy single-threshold switch: flaps around the
            # threshold as each shed relieves exactly the backlog that
            # caused it
            if self.threads.length > 0:
                return False  # a thread is free: admit
            return self.netstack.backlog_s > max_backlog
        # hysteresis: enter shedding above max_backlog, keep shedding
        # until the backlog falls to the (lower) exit threshold
        if self._shedding:
            if self.netstack.backlog_s <= exit_backlog:
                self._shedding = False
        elif self.threads.length == 0 \
                and self.netstack.backlog_s > max_backlog:
            self._shedding = True
        return self._shedding

    def _ladder_shed(self, record: Any):
        """Top-rung admission control (degradation levels 4 and 5);
        returns the shed path name, or None to admit."""
        controller = self.degradation
        if controller is None:
            return None
        if controller.priority_admission_active \
                and record.priority != "interactive":
            self.shed_priority += 1
            return "shed-priority"
        if controller.deadline_shed_active:
            # can this request still meet its deadline?  Estimate its
            # wait as the netstack backlog plus half the deadline when
            # no thread is free (thread wait is unobservable up front);
            # shed probabilistically as the estimate crosses half the
            # deadline, so the cutoff has no hard edge to oscillate on.
            deadline = DEGRADE_DEADLINE_S
            estimate = self.netstack.backlog_s
            if self.threads.length == 0:
                estimate += deadline / 2.0
            excess = estimate - deadline / 2.0
            if excess > 0:
                probability = min(1.0, excess / deadline)
                if self._shed_rng.random() < probability:
                    self.shed_deadline += 1
                    return "shed-deadline"
        return None

    def _handle(self, request: Request, span=None):
        env = self.env
        access_link = self.access_link
        overhead_bytes = REQUEST_OVERHEAD_BYTES
        # connection setup through the kernel: the per-request serial cost
        mark = env._now
        yield env.timeout(self.netstack.reserve(1.0))
        if access_link is not None:
            yield env.timeout(access_link.reserve(overhead_bytes))
        if span is not None:
            span.record("netstack", "network", mark)
            mark = env._now
        thread = yield self.threads.get()
        if span is not None:
            span.record("thread-wait", "queueing", mark)
            request.trace = service_span = span.child("service", "service")
        try:
            # handle() is a generator function or returns a generator
            response = yield from self.service.handle(self, request)
        except Interrupt:
            raise  # this front end was killed: not a service error
        except Exception as error:  # service bug: error page, not a crash
            response = Response(status="error", path="exception",
                                detail=f"{type(error).__name__}: {error}")
        finally:
            self.threads.put_nowait(thread)
        if span is not None:
            service_span.finish()
            mark = env._now
        status = response.status
        if status == "fallback":
            self.fallbacks += 1
        elif status == "degraded":
            self.degraded += 1
        elif status == "error":
            self.errors += 1
        # ship the response back out the access link
        if access_link is not None:
            yield env.timeout(access_link.reserve(
                response.size_bytes + overhead_bytes))
        if span is not None:
            if access_link is not None:
                span.record("access-link-out", "network", mark,
                            annotations={"bytes": response.size_bytes})
            if response.annotations:
                span.annotate(**response.annotations)
            span.annotate(status=status, path=response.path).finish()
        if self.alive and request._value is PENDING:
            self.responses_sent += 1
            request.succeed(response)

    @property
    def active_requests(self) -> int:
        return self.config.frontend_threads - self.threads.length

    def is_saturated(self) -> bool:
        """The Table 2 'FE Ethernet' saturation signal."""
        if self.netstack.utilization() >= 0.9:
            return True
        return (self.access_link is not None
                and self.access_link.utilization() >= 0.9)

    # -- processes -------------------------------------------------------------------

    def _start_processes(self) -> None:
        self.spawn(self._beacon_listener())
        # Maintenance ticks ride the kernel's coalesced periodic timers:
        # every front end shares one heap event per beacon interval
        # instead of owning a watchdog timeout plus a heartbeat timeout.
        self._watchdog_timer = self.every(
            self.config.beacon_interval_s, self._watchdog_check)
        self.every(self.config.report_interval_s, self._send_heartbeat)
        if self.config.balancing == "distributed":
            self.spawn(self._announcement_listener())

    def _announcement_listener(self):
        """Distributed-balancing mode: consume the workers' own load
        announcements (Section 2.2.2's road not taken)."""
        from repro.core.messages import WORKER_ANNOUNCE_GROUP
        subscription = self.cluster.multicast.group(
            WORKER_ANNOUNCE_GROUP).subscribe(self.name)
        try:
            while True:
                advert = yield subscription.get()
                self.stub.observe_worker_advert(advert)
        finally:
            subscription.cancel()

    def _beacon_listener(self):
        subscription = self.cluster.multicast.group(BEACON_GROUP).subscribe(
            self.name)
        try:
            while True:
                beacon: ManagerBeacon = yield subscription.get()
                is_new_manager = self.stub.observe_beacon(beacon)
                if is_new_manager:
                    yield from self._register_with_manager(beacon)
        finally:
            subscription.cancel()

    def _register_with_manager(self, beacon: ManagerBeacon):
        channel = yield from Channel.connect(
            self.env, self.cluster.network, self.name, beacon.manager_id)
        if not self.alive:
            channel.close()
            return
        registration = RegisterFrontEnd(
            frontend_name=self.name,
            node_name=self.node.name,
            frontend=self,
        )
        if beacon.manager.accept_frontend(registration, channel.b):
            if self._manager_endpoint is not None:
                self._manager_endpoint.channel.close()
            self._manager_endpoint = channel.a
        else:
            channel.close()

    def _send_heartbeat(self) -> None:
        endpoint = self._manager_endpoint
        if endpoint is None:
            return
        try:
            endpoint.send({"heartbeat": self.name,
                           "active": self.active_requests},
                          size_bytes=REPORT_BYTES)
        except ChannelClosed:
            self._manager_endpoint = None

    def _watchdog_check(self) -> None:
        """Process-peer duty: restart the manager when its beacons stop.

        "The front end detects and restarts a crashed manager."
        """
        tolerance_s = (BEACON_LOSS_TOLERANCE
                       * self.config.beacon_interval_s)
        if self.stub.last_beacon_at is None:
            return  # never heard one; the fabric boots the first
        if self.stub.beacon_age() > tolerance_s:
            self.fabric.restart_manager(requested_by=self.name)
            # give the new manager a chance to start beaconing before
            # checking again (the skipped ticks keep the old cadence:
            # tolerance is a whole number of beacon intervals)
            self._watchdog_timer.defer(tolerance_s)

    # -- crash ------------------------------------------------------------------------------

    def _on_crash(self) -> None:
        if self._manager_endpoint is not None:
            self._manager_endpoint.channel.close()
            self._manager_endpoint = None
