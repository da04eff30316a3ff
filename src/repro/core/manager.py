"""The centralized, fault-tolerant load-balancing manager.

"For internal load balancing, TranSend uses a centralized manager whose
responsibilities include tracking the location of distillers, spawning
new distillers on demand, balancing load across distillers of the same
class, and providing the assurance of fault tolerance and system tuning"
(Section 3.1.2).

Everything the manager knows is **soft state** (Section 3.1.3):

* workers register over a connection they open after hearing the
  manager's multicast beacon; a broken connection *is* the failure
  detector;
* load views are exponentially-weighted moving averages of the stubs'
  periodic queue-length reports; report silence beyond
  ``worker_timeout_s`` is the backup failure detector;
* the beacon the manager multicasts every ``beacon_interval_s`` carries
  its identity, incarnation, and per-worker load hints — everything a
  front end needs, so a freshly restarted manager reconstructs the whole
  picture from re-registrations within a beacon period or two, with no
  crash-recovery protocol at all.

Spawning implements Section 4.5's policy: when a worker class's average
queue length crosses the threshold *H*, spawn a new worker of that class
on an unused node (recruiting the overflow pool when the dedicated pool
is exhausted), then disable spawning for *D* seconds to let the system
stabilize.  Reaping releases workers — overflow nodes first — when load
subsides.

How the manager survives its own crash is a *replication strategy*
handed to the one :class:`Manager` class: :class:`Local` is the soft
state above; :class:`repro.core.process_pair.Mirror` ships a snapshot
to a hot standby every beacon (the prototype Section 3.1.3 discarded);
:class:`repro.consensus.replica.Paxos` replicates membership and load
through a Paxos log under a leader lease.  A strategy answers
``may_act()`` (may this manager beacon, register, hand out hints,
spawn and reap now?) and ``submit(op)``, where ``op`` is one of the
facts the manager applies to its table:

* ``("join", registration)``: a worker was registered;
* ``("depart", names)``: these workers died or were reaped;
* ``("expire", names)``: the policy tick's silence sweep dropped them;
* ``("load",)``: a beacon is due (the load snapshot's moment).

It also carries the beacon's ``lease_until``, the monitor payload's
``monitor_extra`` and the ``adverts()`` the beacon carries, and runs
the manager's loops from ``start()`` and tears its own state down in
``stop()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.component import Component
from repro.core.config import (LOAD_EWMA_ALPHA, MIN_WORKERS_PER_TYPE,
                               REAP_THRESHOLD, SNSConfig)
from repro.core.messages import (
    BEACON_BYTES,
    BEACON_GROUP,
    MONITOR_GROUP,
    LoadReport,
    ManagerBeacon,
    MonitorReport,
    RegisterFrontEnd,
    RegisterWorker,
    WorkerAdvert,
)
from repro.sim.cluster import Cluster
from repro.sim.node import Node
from repro.sim.transport import ChannelClosed, Endpoint

#: Seconds to fork+exec+initialize a worker process on a node.
SPAWN_DELAY_S = 1.0
#: seconds a busy reap victim gets to drain (queued work is moved to
#: peers, the in-service request runs out) before it is killed anyway.
REAP_DRAIN_TIMEOUT_S = 10.0
#: the replication op a due beacon submits (one shared tuple: the
#: snapshot is the strategy's to take, if it keeps one).
LOAD = ("load",)


@dataclass
class SpawnFailure:
    """One failed worker spawn, with enough context for chaos reports
    to attribute capacity loss (rather than an anonymous counter)."""

    time: float
    worker_type: str
    node_name: str
    reason: str       # "node-down" | "manager-dead" | exception type
    detail: str = ""

    def __repr__(self) -> str:
        return (f"<SpawnFailure {self.worker_type} on {self.node_name} "
                f"@ {self.time:.2f}s: {self.reason}"
                + (f" ({self.detail})" if self.detail else "") + ">")


class WorkerInfo:
    """Manager-side soft state about one registered worker."""

    def __init__(self, registration: RegisterWorker, endpoint: Endpoint,
                 now: float) -> None:
        self.name = registration.worker_name
        self.worker_type = registration.worker_type
        self.node_name = registration.node_name
        self.stub = registration.stub
        self.endpoint = endpoint
        self.queue_avg = 0.0
        self.last_report_at = now
        self.service_ewma_s = 0.0

    def update(self, report: LoadReport, alpha: float,
               load_metric: str = "queue") -> None:
        value = (report.weighted_load if load_metric == "weighted-cost"
                 else report.queue_length)
        self.queue_avg = alpha * value + (1.0 - alpha) * self.queue_avg
        self.last_report_at = report.sent_at
        # already smoothed at the worker: relay, don't re-smooth
        self.service_ewma_s = report.service_ewma_s


class FrontEndInfo:
    """Manager-side soft state about one registered front end."""

    def __init__(self, registration: RegisterFrontEnd,
                 endpoint: Endpoint) -> None:
        self.name = registration.frontend_name
        self.node_name = registration.node_name
        self.endpoint = endpoint


class Manager(Component):
    """Tracks workers, balances load, spawns/reaps, restarts front ends."""

    kind = "manager"

    def __init__(self, cluster: Cluster, node: Node, name: str,
                 config: SNSConfig, fabric: Any, incarnation: int,
                 replication: Callable[["Manager"], Any]) -> None:
        super().__init__(cluster, node, name)
        self.config = config
        self.fabric = fabric
        self.incarnation = incarnation
        self.workers: Dict[str, WorkerInfo] = {}
        self.frontends: Dict[str, FrontEndInfo] = {}
        self._last_spawn_at: Dict[str, float] = {}
        self._low_load_since: Dict[str, Optional[float]] = {}
        self._spawns_in_flight: Dict[str, int] = {}
        # counters for reporting
        self.beacons_sent = 0
        self.reports_received = 0
        self.spawns = 0
        self.spawn_failures = 0
        self.spawn_failure_log: List[SpawnFailure] = []
        self.reaps = 0
        #: queued requests moved to a peer while draining a reap victim,
        #: and those that could not be (lost to the sender's timeout).
        self.reap_redispatches = 0
        self.reap_drops = 0
        #: names being drained for reaping: their re-registration is
        #: refused (the victim's stub would otherwise re-register the
        #: moment we close its endpoint and undo the reap).
        self._reaping: set = set()
        self.worker_failures_detected = 0
        self.frontend_restarts = 0
        #: how this manager survives a crash: :class:`Local`, ``Mirror``
        #: or ``Paxos``, built last so it sees a complete manager.
        self.replication = replication(self)

    def _start_processes(self) -> None:
        self.replication.start()

    def start_ticks(self) -> None:
        """The beacon and policy loops every strategy runs."""
        # Body-first beacon then sleep-first policy: both share the
        # beacon-interval periodic bucket, beacon first — the same
        # within-tick order the two process loops produced.
        self._beacon_group = self.cluster.multicast.group(BEACON_GROUP)
        self._monitor_group = self.cluster.multicast.group(MONITOR_GROUP)
        self.every(self.config.beacon_interval_s, self._publish_beacon,
                   first_delay=0)
        self.every(self.config.beacon_interval_s, self._policy_tick)

    def _publish_beacon(self) -> None:
        replication = self.replication
        replication.submit(LOAD)
        if not replication.may_act():
            return
        beacon = ManagerBeacon(
            manager_id=self.name,
            incarnation=self.incarnation,
            manager=self,
            sent_at=self.env.now,
            adverts=replication.adverts(),
            lease_until=replication.lease_until,
        )
        self._beacon_group.publish(
            beacon, size_bytes=BEACON_BYTES, sender=self.name)
        self._monitor_group.publish(MonitorReport(
            component=self.name,
            kind="manager",
            sent_at=self.env.now,
            payload={
                "workers": len(self.workers),
                "frontends": len(self.frontends),
                "incarnation": self.incarnation,
                **replication.monitor_extra,
            },
        ), sender=self.name)
        self.beacons_sent += 1

    def live_adverts(self, infos: Optional[Iterable[WorkerInfo]] = None
                     ) -> Dict[str, WorkerAdvert]:
        """Hints for ``infos``, by default the whole live table."""
        return {
            info.name: WorkerAdvert(
                worker_name=info.name,
                worker_type=info.worker_type,
                node_name=info.node_name,
                stub=info.stub,
                queue_avg=info.queue_avg,
                last_report_at=info.last_report_at,
                service_ewma_s=info.service_ewma_s,
            )
            for info in (self.workers.values() if infos is None else infos)
        }

    def _policy_tick(self) -> None:
        if not self.replication.may_act():
            return
        self._expire_silent_workers()
        self._spawn_check()
        self._reap_check()

    # -- registration and report intake -------------------------------------------

    def accept_worker(self, registration: RegisterWorker,
                      endpoint: Endpoint) -> bool:
        """Called (over the network) by a worker stub's register path."""
        if not self.replication.may_act() \
                or registration.worker_name in self._reaping:
            return False
        info = WorkerInfo(registration, endpoint, self.env.now)
        self.workers[info.name] = info
        self._spawns_in_flight[info.worker_type] = max(
            0, self._spawns_in_flight.get(info.worker_type, 0) - 1)
        self.spawn(self._worker_recv_loop(info))
        self.replication.submit(("join", registration))
        return True

    def accept_frontend(self, registration: RegisterFrontEnd,
                        endpoint: Endpoint) -> bool:
        if not self.replication.may_act():
            return False
        info = FrontEndInfo(registration, endpoint)
        self.frontends[info.name] = info
        self.spawn(self._frontend_recv_loop(info))
        return True

    def _worker_recv_loop(self, info: WorkerInfo):
        while True:
            try:
                report = yield info.endpoint.recv()
            except ChannelClosed:
                self._worker_died(info)
                return
            if isinstance(report, LoadReport):
                self.reports_received += 1
                info.update(report, LOAD_EWMA_ALPHA,
                            self.config.load_metric)

    def _frontend_recv_loop(self, info: FrontEndInfo):
        """Heartbeats carry nothing: a broken connection is the news."""
        try:
            while True:
                yield info.endpoint.recv()
        except ChannelClosed:
            self._frontend_died(info)

    # -- failure handling -----------------------------------------------------------

    def _worker_died(self, info: WorkerInfo) -> None:
        """A worker's connection broke: remove it and react to the load
        shift immediately (Figure 8(b): 'The manager immediately reacted
        and started up a new distiller')."""
        if self.workers.get(info.name) is not info:
            return
        del self.workers[info.name]
        self.worker_failures_detected += 1
        if self.alive:
            self._spawn_check()
        self.replication.submit(("depart", [info.name]))

    def _expire_silent_workers(self) -> None:
        """Timeouts as the backup failure detector (Section 2.2.4)."""
        deadline = self.env.now - self.config.worker_timeout_s
        expired = []
        for info in list(self.workers.values()):
            if info.last_report_at < deadline:
                if info.endpoint is not None:
                    info.endpoint.channel.close()
                if info.name in self.workers:
                    del self.workers[info.name]
                    self.worker_failures_detected += 1
                    expired.append(info.name)
        self.replication.submit(("expire", expired))

    def _frontend_died(self, info: FrontEndInfo) -> None:
        """Process-peer duty: 'The manager detects and restarts a
        crashed front end.'"""
        if self.frontends.get(info.name) is not info:
            return
        del self.frontends[info.name]
        if self.alive:
            self.frontend_restarts += 1
            self.fabric.restart_frontend(info.name, info.node_name)

    # -- locate / on-demand spawn -----------------------------------------------------

    def workers_of_type(self, worker_type: str) -> List[WorkerInfo]:
        return [info for info in self.workers.values()
                if info.worker_type == worker_type]

    def request_worker(self, worker_type: str) -> Optional[WorkerAdvert]:
        """A manager stub asks for a worker of a type it has no hint for.

        Returns the least-loaded worker, or None after initiating an
        on-demand spawn ("the manager ... locates an appropriate
        distiller, spawning a new one if necessary") — the caller waits
        for a beacon and retries.
        """
        if not self.replication.may_act():
            return None
        candidates = self.workers_of_type(worker_type)
        if candidates:
            best = min(candidates, key=lambda info: info.queue_avg)
            return self.live_adverts([best])[best.name]
        if self._spawns_in_flight.get(worker_type, 0) == 0:
            self._spawn_worker(worker_type)
        return None

    # -- spawn / reap policy --------------------------------------------------------------

    def _average_queue(self, worker_type: str) -> Optional[float]:
        infos = self.workers_of_type(worker_type)
        if not infos:
            return None
        return sum(info.queue_avg for info in infos) / len(infos)

    def _known_types(self) -> List[str]:
        return sorted({info.worker_type for info in self.workers.values()})

    def _spawn_check(self) -> None:
        for worker_type in self._known_types():
            average = self._average_queue(worker_type)
            if average is None or average < self.config.spawn_threshold:
                continue
            last = self._last_spawn_at.get(worker_type)
            if last is not None and \
                    self.env.now - last < self.config.spawn_damping_s:
                continue
            if self._spawns_in_flight.get(worker_type, 0) > 0:
                continue
            self._spawn_worker(worker_type)

    def _spawn_worker(self, worker_type: str) -> bool:
        node = self.cluster.free_node(
            include_overflow=self.config.use_overflow_pool,
            reachable_from=self.node.name)
        if node is None:
            node = self._node_with_headroom()
            if node is None:
                return False
        self._last_spawn_at[worker_type] = self.env.now
        self._spawns_in_flight[worker_type] = \
            self._spawns_in_flight.get(worker_type, 0) + 1
        self.spawns += 1
        self.spawn(self._spawn_after_delay(worker_type, node))
        return True

    def _node_with_headroom(self) -> Optional[Node]:
        """Fallback placement when no node is completely free: co-locate
        on the least-loaded up node (but never on the manager's own)."""
        candidates = [
            node for node in self.cluster.dedicated_nodes
            if node.up and node is not self.node
            and self.cluster._placeable(node, self.node.name)
        ]
        if self.config.use_overflow_pool:
            candidates += [
                n for n in self.cluster.overflow_nodes
                if n.up and self.cluster._placeable(n, self.node.name)
            ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: len(n.components))

    def _spawn_after_delay(self, worker_type: str, node: Node):
        yield self.env.timeout(SPAWN_DELAY_S)
        if not self.alive or not node.up:
            self._record_spawn_failure(
                worker_type, node,
                "node-down" if self.alive else "manager-dead")
            return
        try:
            self.fabric.spawn_worker(worker_type, node)
        except Exception as error:
            # exec failure (missing binary, bad node): give up on this
            # attempt; the policy loop will retry if load persists.
            self._record_spawn_failure(worker_type, node,
                                       type(error).__name__, str(error))

    def _record_spawn_failure(self, worker_type: str, node: Node,
                              reason: str, detail: str = "") -> None:
        self._spawns_in_flight[worker_type] = max(
            0, self._spawns_in_flight.get(worker_type, 0) - 1)
        self.spawn_failures += 1
        self.spawn_failure_log.append(SpawnFailure(
            time=self.env.now, worker_type=worker_type,
            node_name=node.name, reason=reason, detail=detail))

    def _reap_check(self) -> None:
        for worker_type in self._known_types():
            infos = self.workers_of_type(worker_type)
            if len(infos) <= MIN_WORKERS_PER_TYPE:
                self._low_load_since[worker_type] = None
                continue
            average = self._average_queue(worker_type)
            if average is None or average > REAP_THRESHOLD:
                self._low_load_since[worker_type] = None
                continue
            since = self._low_load_since.get(worker_type)
            if since is None:
                self._low_load_since[worker_type] = self.env.now
                continue
            if self.env.now - since < self.config.reap_after_s:
                continue
            self._reap_one(infos)
            self._low_load_since[worker_type] = None

    def _reap_one(self, infos: List[WorkerInfo]) -> None:
        """Release the emptiest worker, preferring overflow nodes
        ("Once the burst subsides, the distillers may be reaped").

        Prefers a victim with nothing in flight; a busy victim is taken
        out of rotation immediately but killed only after its accepted
        work has been drained — queued requests are re-dispatched to
        same-type peers rather than silently dropped.
        """
        def preference(info: WorkerInfo):
            node = self.cluster.nodes.get(info.node_name)
            on_overflow = bool(node and node.overflow)
            stub = info.stub
            draining = bool(stub is not None and stub.alive
                            and stub.load > 0)
            return (not on_overflow, draining, info.queue_avg)

        victim = min(infos, key=preference)
        self.reaps += 1
        if victim.endpoint is not None:
            victim.endpoint.channel.close()
        self.workers.pop(victim.name, None)
        stub = victim.stub
        if stub is not None and stub.alive:
            if stub.load == 0:
                stub.kill()
            else:
                self._reaping.add(stub.name)
                self.spawn(self._drain_then_kill(stub))
        self.replication.submit(("depart", [victim.name]))

    def _drain_then_kill(self, stub):
        """Move a reap victim's accepted-but-unserved requests to peers,
        wait out its in-service request, then kill it.  Bounded by
        :data:`REAP_DRAIN_TIMEOUT_S`: anything still stuck after that is
        counted as dropped (the senders' timeouts cover it)."""
        deadline = self.env.now + REAP_DRAIN_TIMEOUT_S
        try:
            while self.alive and stub.alive:
                for envelope in stub.drain_queue():
                    self._redispatch(envelope, stub)
                if stub.load == 0:
                    # one more beat: the final result's SAN delivery is
                    # still in flight, and the SIGKILL would tear it down
                    yield self.env.timeout(self.config.report_interval_s)
                    if stub.load == 0:
                        break
                if self.env.now >= deadline:
                    self.reap_drops += stub.load
                    break
                yield self.env.timeout(self.config.report_interval_s)
        finally:
            self._reaping.discard(stub.name)
            if stub.alive:
                stub.kill()

    def _redispatch(self, envelope: Any, victim_stub: Any) -> None:
        """Hand one drained envelope to the least-loaded live peer."""
        peers = sorted(
            (info for info in self.workers.values()
             if info.worker_type == victim_stub.worker_type
             and info.stub is not None and info.stub.alive
             and not info.stub.is_partitioned),
            key=lambda info: (info.queue_avg, info.name))
        for info in peers:
            if info.stub.submit(envelope):
                self.reap_redispatches += 1
                return
        # no peer could take it: put it back for the victim to finish
        # before the drain deadline (or count it lost)
        if not (victim_stub.alive and victim_stub.queue.try_put(envelope)):
            self.reap_drops += 1

    # -- crash ------------------------------------------------------------------------------

    def _on_crash(self) -> None:
        for info in self.workers.values():
            if info.endpoint is not None:
                info.endpoint.channel.close()
        for info in self.frontends.values():
            info.endpoint.channel.close()
        self.workers.clear()
        self.frontends.clear()
        self.replication.stop()



class Local:
    """Soft state, the paper's final design (Section 3.1.3): whoever is
    alive acts, no fact is replicated, and a successor rebuilds the
    table from re-registrations.  Nothing bounds a hint's staleness."""

    lease_until: Optional[float] = None
    monitor_extra: Dict[str, Any] = {}

    def __init__(self, manager: Manager) -> None:
        self.manager = manager
        self._beacon_subscription = None

    def may_act(self) -> bool:
        return self.manager.alive

    def submit(self, op: tuple) -> None:
        """Soft state keeps nothing but the live table."""

    def adverts(self) -> Dict[str, WorkerAdvert]:
        return self.manager.live_adverts()

    def start(self) -> None:
        manager = self.manager
        manager.start_ticks()
        if manager.config.manager_self_deposition:
            manager.spawn(self._deposition_loop())

    def stop(self) -> None:
        if self._beacon_subscription is not None:
            self._beacon_subscription.cancel()
            self._beacon_subscription = None

    def _deposition_loop(self):
        """Split-brain damage control: if a beacon with a *higher*
        incarnation arrives, a successor was started while this manager
        was unreachable — step down (kill it) rather than keep
        multicasting a stale view.  This is best-effort (the beacon has
        to get through), which is exactly the soft-state story; the
        consensus strategy replaces it with leases.
        """
        manager = self.manager
        self._beacon_subscription = manager.cluster.multicast.group(
            BEACON_GROUP).subscribe(manager.name)
        while True:
            beacon = yield self._beacon_subscription.get()
            if (isinstance(beacon, ManagerBeacon)
                    and beacon.manager is not manager
                    and beacon.incarnation > manager.incarnation):
                manager.kill()
                return
