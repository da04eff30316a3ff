"""The worker stub: the SNS side of every worker process.

"The worker stub hides fault tolerance, load balancing, and
multithreading considerations from the worker code" (Section 2.2.5).
Concretely, the stub:

* accepts and queues requests on behalf of the worker;
* runs the worker over each request, charging the host node's CPU with
  the worker's (noisy) cost model;
* reports its queue length to the manager every ``report_interval_s``
  ("the worker stub ... periodically reports load information to the
  manager");
* discovers the manager by listening to its multicast beacons and
  (re-)registers whenever a new manager incarnation appears — this is
  the soft-state re-registration that makes manager crash recovery free
  (Section 3.1.3);
* reports detectable failures in its own operation: a request the
  worker dies on fails that request only, never the stub ("worker code
  ... can, in fact, crash without taking the system down").
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.component import Component
from repro.core.config import LOAD_EWMA_ALPHA, SNSConfig
from repro.core.messages import (
    BEACON_GROUP,
    REGISTER_BYTES,
    REPORT_BYTES,
    LoadReport,
    ManagerBeacon,
    RegisterWorker,
    WorkEnvelope,
)
from repro.recovery.gray import GrayState
from repro.sim.cluster import Cluster
from repro.sim.kernel import PENDING, Interrupt, QueueFull
from repro.sim.node import Node, NodeDown
from repro.sim.transport import Channel, ChannelClosed
from repro.tacc.worker import Worker, WorkerError


class WorkerStub(Component):
    """Hosts one stateless worker instance on a node."""

    kind = "worker"

    def __init__(
        self,
        cluster: Cluster,
        node: Node,
        name: str,
        worker: Worker,
        config: SNSConfig,
        on_overflow_node: bool = False,
    ) -> None:
        super().__init__(cluster, node, name)
        self.worker = worker
        self.config = config
        self.on_overflow_node = on_overflow_node
        self.rng = cluster.streams.stream(f"worker:{name}")
        self.queue = cluster.env.queue(config.worker_queue_capacity)
        #: injectable gray-failure switches (repro.recovery); all-default
        #: for a healthy worker.
        self.gray = GrayState()
        self.busy = False
        self._in_service_cost_s = 0.0
        #: EWMA of wall-clock service time (compute + execute, queue
        #: wait excluded), published in load reports so latency-aware
        #: routing policies have a prior before their own samples.
        self.service_ewma_s = 0.0
        self._manager_endpoint = None
        self._registered_incarnation: Optional[int] = None
        #: highest manager incarnation ever heard: beacons below it come
        #: from a deposed manager (partitioned away, then healed back)
        #: and must not win the worker's registration.
        self._highest_incarnation: int = -1
        self.stale_beacons_ignored = 0
        #: cut off the SAN until this time; written only by partition()
        self._partitioned_until = 0.0
        # counters
        self.served = 0
        self.failed = 0
        self.refused = 0
        self.expired = 0

    @property
    def worker_type(self) -> str:
        return self.worker.worker_type

    @property
    def load(self) -> int:
        """Instantaneous queue length including the in-service request —
        the paper's load metric."""
        return self.queue.length + (1 if self.busy else 0)

    # -- submission (called by manager stubs at front ends) ----------------------

    def submit(self, envelope: WorkEnvelope) -> bool:
        """Accept a request onto the stub's queue.

        Returns False when the queue is full (connection refused).  A
        *dead* stub silently swallows the request — packets to a crashed
        process get no answer, and the sender's timeout is the only
        detector, exactly as in the paper's stale-hint scenario.
        """
        if not self.alive or self.env._now < self._partitioned_until:
            return True  # swallowed; caller's timeout will fire
        if self.gray.zombie:
            # the zombie keeps beaconing load reports (its report loop
            # still runs) but drops every piece of actual work — and its
            # empty queue makes the balancer *prefer* it
            self.gray.dropped += 1
            return True
        try:
            self.queue.put_nowait(envelope)
        except QueueFull:
            self.refused += 1
            return False
        envelope.cost_s = self.worker.work_estimate(envelope.work)
        envelope.enqueued_at = self.env._now
        return True

    # -- processes ------------------------------------------------------------------

    def _start_processes(self) -> None:
        self.spawn(self._service_loop())
        self._announce_group = None
        if self.config.balancing == "distributed":
            from repro.core.messages import WORKER_ANNOUNCE_GROUP
            self._announce_group = self.cluster.multicast.group(
                WORKER_ANNOUNCE_GROUP)
        # one coalesced tick per report interval for the whole worker
        # population, not one timeout per stub
        self.every(self.config.report_interval_s, self._send_report)
        self.spawn(self._beacon_listener())

    def _service_loop(self):
        env = self.env
        config = self.config
        gray = self.gray
        worker = self.worker
        while True:
            envelope: WorkEnvelope = yield self.queue.get()
            if envelope.trace is not None:
                envelope.trace.record(
                    "worker-queue", "queueing", envelope.enqueued_at,
                    component=self.name,
                    annotations={"depth": self.queue.length})
            if gray.hung:
                # hang: the request is accepted and then held forever,
                # the queue backing up behind it; only the dispatcher's
                # RPC timeout (or the supervisor's probe) notices
                gray.dropped += 1
                self.busy = True
                yield env.event()
            if (config.shed_expired_requests
                    and env._now >= envelope.request.deadline_at):
                # deadline propagation: the dispatching front end has
                # already fallen back, so executing this would only add
                # queueing delay in front of live requests
                self.expired += 1
                if envelope.trace is not None:
                    envelope.trace.annotate(shed_expired=True)
                continue
            self.busy = True
            self._in_service_cost_s = envelope.cost_s
            service_span = None
            if envelope.trace is not None:
                service_span = envelope.trace.child(
                    "worker-service", "service", component=self.name)
            service_started_at = env._now
            try:
                cpu_s = worker.work_sample(self.rng, envelope.work)
                inflation = gray.inflation(service_started_at)
                if inflation != 1.0:
                    cpu_s *= inflation  # fail-slow / leak inflation
                yield from self.node.compute(cpu_s)
                result = worker.simulate(envelope.work)
                if gray.corrupt:
                    result = worker.corrupt_result(result)
            except Interrupt:
                raise  # this stub was killed: not a worker failure
            except WorkerError as error:
                # a *reported* failure: this request only
                self.failed += 1
                if service_span is not None:
                    service_span.annotate(error="WorkerError").finish()
                if envelope._value is PENDING:
                    envelope.fail(error)
                continue
            except NodeDown:
                return  # host died under us
            except Exception:
                # an *unreported* bug in worker code: the worker process
                # segfaults.  "Worker code ... can, in fact, crash
                # without taking the system down" — the stub dies with
                # it, the manager sees the broken connection, and the
                # SNS layer carries on.  The in-flight request is lost
                # (the sender's timeout covers it).
                self.failed += 1
                self.busy = False
                self.kill()
                return
            finally:
                self.busy = False
            if service_span is not None:
                service_span.finish()
            self.served += 1
            elapsed = env._now - service_started_at
            if self.service_ewma_s == 0.0:
                self.service_ewma_s = elapsed
            else:
                self.service_ewma_s = (LOAD_EWMA_ALPHA * elapsed
                                       + (1.0 - LOAD_EWMA_ALPHA)
                                       * self.service_ewma_s)
            self.spawn(self._deliver(envelope, result))

    # -- supervision surface (repro.recovery) --------------------------------

    def probe_reply(self) -> Optional[tuple]:
        """Answer an end-to-end health probe, or ``None`` if no answer
        will ever come.

        Returns ``(service_s, nominal_s, output_ok)``: the wall-clock
        service time a probe request would take here right now (gray
        inflation and node speed included), the nominal service time a
        healthy process on this node would take (so the caller can judge
        relative slowness), and whether the output would pass end-to-end
        validation.  Synchronous and side-effect-free by design: probes
        must not enter the real queue (queue depth feeds load reports
        feeds the lottery) nor touch the shared SAN, or supervision
        would perturb fault-free runs.
        """
        if not self.alive or self.is_partitioned or not self.node.up:
            return None
        if self.gray.hung or self.gray.zombie:
            return None  # accepted, then silence
        probe = self.worker.probe_request()
        nominal_s = self.worker.work_estimate(probe) / self.node.speed
        service_s = nominal_s * self.gray.inflation(self.env.now)
        content = probe.inputs[0]
        if self.gray.corrupt:
            content = self.worker.corrupt_result(content)
        return service_s, nominal_s, self.worker.validate_result(content)

    def drain_queue(self) -> list:
        """Remove and return every queued envelope (reap drain: the
        manager re-dispatches these to peers before killing the stub)."""
        return self.queue.clear()

    def _deliver(self, envelope: WorkEnvelope, result) -> None:
        """Ship the result back across the SAN, then complete the reply."""
        mark = self.env._now
        delay = self.cluster.network.transfer_delay(result.size)
        yield self.env.timeout(delay)
        if envelope.trace is not None:
            envelope.trace.record("san-reply", "network", mark,
                                  component=self.name,
                                  annotations={"bytes": result.size})
        if self.alive and envelope._value is PENDING:
            envelope.succeed(result)

    def _send_report(self) -> None:
        report = LoadReport(
            worker_name=self.name,
            worker_type=self.worker_type,
            node_name=self.node.name,
            queue_length=self.load,
            weighted_load=self._weighted_load(),
            sent_at=self.env.now,
            service_ewma_s=self.service_ewma_s,
        )
        if self._announce_group is not None and not self.is_partitioned:
            # distributed mode: shout the load at every front end
            from repro.core.messages import WorkerAdvert
            self._announce_group.publish(WorkerAdvert(
                worker_name=self.name,
                worker_type=self.worker_type,
                node_name=self.node.name,
                stub=self,
                queue_avg=float(self.load),
                last_report_at=self.env.now,
                service_ewma_s=self.service_ewma_s,
            ), size_bytes=REPORT_BYTES, sender=self.name)
        endpoint = self._manager_endpoint
        if endpoint is None:
            return
        try:
            endpoint.send(report, size_bytes=REPORT_BYTES)
        except ChannelClosed:
            self._manager_endpoint = None
            self._registered_incarnation = None

    def _weighted_load(self) -> float:
        """Seconds of queued work: each item weighted by its expected
        cost, plus the in-service item (footnote 2 of Section 3.1.2)."""
        total = self._in_service_cost_s if self.busy else 0.0
        # the queue can be tens of thousands deep under overload and this
        # runs every report interval: keep the walk a single C-level sum
        return total + sum(
            envelope.cost_s for envelope in self.queue._items)

    def partition(self, duration_s: float) -> None:
        """Cut this worker off the SAN for ``duration_s`` (a network
        partition, Section 2.2.4).

        The worker stays alive but unreachable: its manager connection
        breaks (the manager will treat it as lost and may respawn its
        class "on still-visible nodes") and it hears no beacons until
        the partition heals — at which point the ordinary soft-state
        machinery re-registers it as if nothing happened.
        """
        if not self.alive:
            return
        self._partitioned_until = max(self._partitioned_until,
                                      self.env.now + duration_s)
        if self._manager_endpoint is not None:
            self._manager_endpoint.channel.close()
            self._manager_endpoint = None
        self._registered_incarnation = None

    @property
    def is_partitioned(self) -> bool:
        return self.env._now < self._partitioned_until

    def _beacon_listener(self):
        subscription = self.cluster.multicast.group(BEACON_GROUP).subscribe(
            self.name)
        try:
            while True:
                beacon: ManagerBeacon = yield subscription.get()
                if self.is_partitioned:
                    continue  # datagrams do not cross the partition
                if beacon.incarnation < self._highest_incarnation:
                    # a lower incarnation means a deposed manager is
                    # still (or again) beaconing: never re-register
                    # backwards
                    self.stale_beacons_ignored += 1
                    continue
                self._highest_incarnation = beacon.incarnation
                if beacon.incarnation == self._registered_incarnation:
                    continue
                yield from self._register(beacon)
        finally:
            subscription.cancel()

    def _register(self, beacon: ManagerBeacon):
        """Open a connection to the (new) manager and register.

        "When a distiller starts up, it registers itself with the
        manager, whose existence it discovers by subscribing to a
        well-known multicast channel."
        """
        channel = yield from Channel.connect(
            self.env, self.cluster.network, self.name, beacon.manager_id)
        if not self.alive:
            channel.close()
            return
        registration = RegisterWorker(
            worker_name=self.name,
            worker_type=self.worker_type,
            node_name=self.node.name,
            stub=self,
        )
        # The connect above paid the network round trip; the synchronous
        # accept stands in for the registration message itself.
        accepted = beacon.manager.accept_worker(registration, channel.b)
        if not accepted:
            channel.close()
            return
        self._manager_endpoint = channel.a
        self._registered_incarnation = beacon.incarnation

    # -- crash ---------------------------------------------------------------------------

    def _on_crash(self) -> None:
        if self._manager_endpoint is not None:
            self._manager_endpoint.channel.close()
            self._manager_endpoint = None
        self._registered_incarnation = None
        self.queue.clear()
        self.busy = False
