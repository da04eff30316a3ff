"""The SNS fabric: assembly, naming, and restart factories.

The fabric is the deployment glue the paper leaves implicit: it knows how
to create component *processes* (manager, front ends, workers, monitor)
on nodes, which is what the process-peer mechanisms invoke when they
restart a crashed peer.  It also implements the client side: the
"client-side JavaScript" (Section 3.1.2) that balances requests across
front ends and masks transient front end failures is
:meth:`SNSFabric.submit`'s round-robin over live front ends.

The fabric itself holds no protocol state — all coordination remains
soft state inside the components — it is only a factory plus population
bookkeeping for experiments to inspect.
"""

from __future__ import annotations

import itertools
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core.config import SNSConfig
from repro.core.frontend import FrontEnd
from repro.core.manager import Local, Manager, SPAWN_DELAY_S
from repro.core.monitor import Monitor
from repro.core.worker_stub import WorkerStub
from repro.sim.cluster import Cluster
from repro.sim.network import MBPS
from repro.sim.node import Node
from repro.tacc.registry import WorkerRegistry


#: each front end's access link (its Ethernet segment, Section 4.6).
FRONTEND_LINK_BANDWIDTH_BPS = 100 * MBPS
#: sort key of `SNSFabric.submit`'s round-robin (a C-level getter: the
#: sort runs once per request)
_BY_NAME = attrgetter("name")


class FabricError(Exception):
    """Assembly errors: no nodes, unknown types, double boot."""


class SNSFabric:
    """Factories + population bookkeeping for one SNS installation."""

    def __init__(
        self,
        cluster: Cluster,
        registry: WorkerRegistry,
        config: SNSConfig,
        service: Any,
    ) -> None:
        self.cluster = cluster
        self.registry = registry
        self.config = config.validate()
        self.service = service

        self.manager: Optional[Manager] = None
        #: consensus backend: the Paxos replicas' group (``manager`` then
        #: tracks whichever replica currently leads).
        self.consensus: Optional[Any] = None
        #: soft backend: managers deposed for being alive but
        #: SAN-partitioned away from their peers — they keep running
        #: (and beaconing a stale view) until they heal and hear their
        #: successor, which is exactly the split-brain the consensus
        #: backend exists to rule out.
        self.deposed_managers: List[Manager] = []
        #: hot standby when the manager runs in process-pair mode.
        self.secondary: Optional[Any] = None
        self.monitor: Optional[Monitor] = None
        self.frontends: Dict[str, FrontEnd] = {}
        self.workers: Dict[str, WorkerStub] = {}
        self._incarnation = itertools.count(1)
        self._worker_seq: Dict[str, itertools.count] = {}
        self._frontend_seq = itertools.count()
        #: components with a process-peer restart in flight
        #: (:meth:`restart_peer`), by name.
        self._restarts_pending: Set[str] = set()
        self._client_rr = 0
        self.manager_restarts = 0
        #: process-peer front-end restarts executed (the manager's side
        #: of "restarts it on another node"), mirroring manager_restarts.
        self.frontend_restarts = 0
        #: self-healing supervision layer (repro.recovery); opt-in.
        self.supervisor: Optional[Any] = None
        #: profile storage, when the deployment carries one: the store
        #: facade the service reads, and — for the dstore backend — the
        #: BrickCluster behind it (chaos and supervision reach bricks
        #: through here).
        self.profile_store: Optional[Any] = None
        self.profile_bricks: Optional[Any] = None
        #: brownout controller (repro.degrade); opt-in via
        #: :meth:`start_degradation`.
        self.degradation: Optional[Any] = None

    # -- placement helpers ---------------------------------------------------

    def _place(self, node: Optional[Node]) -> Node:
        if node is not None:
            if not node.up:
                raise FabricError(f"node {node.name} is down")
            return node
        free = self.cluster.free_node()
        return free if free is not None else \
            self.cluster.least_loaded_node(None)

    # -- process-peer restarts ------------------------------------------------

    def restart_peer(self, name: str, start: Callable[[], None]) -> bool:
        """The one process-peer restart path (manager by front end,
        front end by manager, consensus replica by its group): wait the
        fork delay, then run ``start``, which re-checks that ``name``
        is still gone, places it and starts it.  Single-flight per
        name — while one restart is pending further requests are
        refused ("one of its peers restarts it")."""
        if name in self._restarts_pending:
            return False
        self._restarts_pending.add(name)
        self.cluster.env.process(self._restart_after_fork(name, start))
        return True

    def _restart_after_fork(self, name: str, start: Callable[[], None]):
        try:
            yield self.cluster.env.timeout(SPAWN_DELAY_S)
            start()
        finally:
            self._restarts_pending.discard(name)

    # -- manager ------------------------------------------------------------------

    def start_manager(self, node: Optional[Node] = None,
                      process_pair: bool = False,
                      mirror: Optional[Dict[str, Any]] = None) -> Manager:
        """Start the manager — the one construction path for the three
        recovery designs, which differ only in the replication strategy
        each :class:`Manager` is built with:

        * soft state (:class:`~repro.core.manager.Local`, the paper's
          final design): ``manager.<incarnation>`` on ``node``;
        * ``process_pair=True``: the same mirrored to a hot standby
          (:class:`~repro.core.process_pair.Mirror`, the prototype of
          Section 3.1.3, kept for the ablation); ``mirror`` is a
          promoted primary's inheritance, the standby's last snapshot;
        * the consensus backend: ``manager:r<i>`` on ``N_REPLICAS``
          distinct up dedicated nodes
          (:class:`~repro.consensus.replica.Paxos`), returning replica
          0, the bootstrap candidate.  SAN partitions are first-class
          there, so the cluster's partition state is installed up front
          (idempotent, and free when no partition is ever declared).
        """
        if self.consensus is not None or (
                self.manager is not None and self.manager.alive):
            raise FabricError("a manager is already running")
        if self.config.manager_backend == "consensus":
            from repro.consensus.replica import (
                N_REPLICAS, Paxos, ReplicatedManagerGroup)
            self.cluster.install_partitions()
            nodes = [node for node in self.cluster.dedicated_nodes
                     if node.up][:N_REPLICAS]
            if len(nodes) < N_REPLICAS:
                raise FabricError(
                    f"need {N_REPLICAS} up nodes for consensus replicas")
            group = self.consensus = ReplicatedManagerGroup(self)
            plan = [(node, f"manager:r{index}", 0,
                     partial(Paxos, index=index, group=group))
                    for index, node in enumerate(nodes)]
        else:
            node = self._place(node)
            incarnation = next(self._incarnation)
            replication = Local
            if process_pair:
                from repro.core.process_pair import Mirror
                replication = partial(Mirror, seed=mirror)
            plan = [(node, f"manager.{incarnation}", incarnation,
                     replication)]
        managers = [Manager(self.cluster, at, name, self.config, self,
                            incarnation, replication)
                    for at, name, incarnation, replication in plan]
        for manager in managers:
            manager.start()
        if self.consensus is not None:
            self.consensus.start(managers)
            return managers[0]
        (self.manager,) = managers
        if process_pair:
            from repro.core.process_pair import SecondaryManager
            secondary = SecondaryManager(
                self.cluster, self._place(None),
                f"{manager.name}.secondary", self.config, self)
            secondary.start()
            manager.replication.secondary = self.secondary = secondary
        return manager

    def promote_secondary(self, node: Node, state) -> Manager:
        """Process-pair takeover: a new primary with the mirrored state,
        beaconing immediately; a fresh secondary re-pairs with it."""
        if self.manager is not None and self.manager.alive:
            return self.manager  # raced with another recovery path
        manager = self.start_manager(node if node.up else None,
                                     process_pair=True, mirror=state)
        self.manager_restarts += 1
        return manager

    def restart_manager(self, requested_by: str = "?") -> bool:
        """Process-peer entry point: a front end noticed beacon silence.

        Idempotent under races — if several front ends notice at once,
        one restart happens ("one of its peers restarts it").
        """
        if "manager" in self._restarts_pending:
            return False
        if self.consensus is not None:
            # replica elections are the failover mechanism; a front end
            # cannot (and must not) fork a fourth manager
            return False
        if self.manager is not None and self.manager.alive:
            partitions = self.cluster.network.partitions
            requester = self.cluster.locate_node(requested_by)
            if partitions is None or requester is None or \
                    partitions.node_reachable(requester,
                                              self.manager.node.name):
                return False
            # the manager is alive but on the far side of a SAN
            # partition: to this front end it is indistinguishable from
            # dead.  Depose it — it keeps running, and keeps beaconing a
            # stale view to anyone who can still hear it — and start a
            # successor on the requester's side.  This *is* split brain;
            # the soft-state design accepts it, the wrong-decision
            # counters measure it.
            self.deposed_managers.append(self.manager)
            self.manager = None
        self.manager_restarts += 1
        return self.restart_peer(
            "manager", lambda: self._start_successor(requested_by))

    def _start_successor(self, requested_by: str) -> None:
        if self.manager is not None and self.manager.alive:
            return  # a process-pair promotion won the race
        # restart on the old node if it survived, else relocate
        # ("on a different node if necessary")
        requester_node = self.cluster.locate_node(requested_by)
        node = None
        if self.manager is not None and self.manager.node.up:
            node = self.manager.node
            if requester_node is not None and not \
                    self.cluster._placeable(node, requester_node):
                node = None  # old node is across the partition
        self.manager = None
        if node is None and requester_node is not None:
            node = self.cluster.free_node(
                reachable_from=requester_node)
            if node is None:
                node = self.cluster.least_loaded_node(requester_node)
        self.start_manager(node)

    @property
    def managers(self) -> List[Manager]:
        """The managers under audit: the consensus replicas, else the
        acting manager."""
        if self.consensus is not None:
            return self.consensus.replicas
        return [self.manager] if self.manager is not None else []

    # -- front ends ------------------------------------------------------------------

    def start_frontend(self, node: Optional[Node] = None,
                       name: Optional[str] = None) -> FrontEnd:
        node = self._place(node)
        if name is None:
            name = f"fe{next(self._frontend_seq)}"
        link_name = f"{name}.eth"
        link = self.cluster.network.access_links.get(link_name)
        if link is None:
            link = self.cluster.add_access_link(
                link_name, FRONTEND_LINK_BANDWIDTH_BPS)
        frontend = FrontEnd(self.cluster, node, name, self.config,
                            self.service, self, access_link=link)
        frontend.start()
        self.frontends[name] = frontend
        if self.supervisor is not None and self.supervisor.alive:
            frontend.stub.on_worker_timeout = \
                self.supervisor.note_rpc_timeout
        if self.degradation is not None:
            frontend.degradation = self.degradation
        return frontend

    def restart_frontend(self, name: str, node_name: str) -> bool:
        """Process-peer entry point for the manager."""
        return self.restart_peer(
            name, lambda: self._start_frontend_again(name, node_name))

    def _start_frontend_again(self, name: str, node_name: str) -> None:
        current = self.frontends.get(name)
        if current is not None and current.alive:
            return  # already back (raced restarts)
        node = self.cluster.nodes.get(node_name)
        if node is None or not node.up:
            node = self._place(None)
        self.frontend_restarts += 1
        self.start_frontend(node, name)

    # -- workers -------------------------------------------------------------------------

    def spawn_worker(self, worker_type: str,
                     node: Optional[Node] = None) -> WorkerStub:
        """Create and start one worker process (manager spawn path)."""
        if worker_type not in self.registry:
            raise FabricError(f"unknown worker type {worker_type!r}")
        node = self._place(node)
        sequence = self._worker_seq.setdefault(worker_type,
                                               itertools.count(1))
        name = f"{worker_type}.{next(sequence)}"
        stub = WorkerStub(
            self.cluster, node, name,
            self.registry.create(worker_type), self.config,
            on_overflow_node=node.overflow,
        )
        stub.start()
        self.workers[name] = stub
        return stub

    def alive_workers(self,
                      worker_type: Optional[str] = None) -> List[WorkerStub]:
        return [
            stub for stub in self.workers.values()
            if stub.alive and (worker_type is None
                               or stub.worker_type == worker_type)
        ]

    def brick_population(self) -> Dict[str, Any]:
        """Current brick incarnations by name (empty without dstore);
        the supervisor probes these alongside workers."""
        if self.profile_bricks is None:
            return {}
        return self.profile_bricks.population()

    # -- monitor ---------------------------------------------------------------------------

    def start_monitor(self, node: Optional[Node] = None) -> Monitor:
        node = self._place(node)
        monitor = Monitor(self.cluster, node, "monitor", self.config)
        monitor.start()
        self.monitor = monitor
        return monitor

    # -- supervision (repro.recovery) ---------------------------------------

    def start_supervisor(self, policy: Any = None,
                         ledger: Any = None) -> Any:
        """Start the gray-failure supervision layer (opt-in).

        Placed on the manager's node — like the monitor, the
        supervisor must not consume a free node or worker placement in
        fault-free runs would differ from unsupervised ones.  Wires the
        RPC-timeout detector into every live front end's manager stub
        (and, via :meth:`start_frontend`, every future one).
        """
        from repro.recovery.supervisor import Supervisor
        if self.supervisor is not None and self.supervisor.alive:
            raise FabricError("a supervisor is already running")
        if self.manager is not None and self.manager.node.up:
            node = self.manager.node
        else:
            node = self._place(None)
        supervisor = Supervisor(self.cluster, node, "supervisor",
                                self.config, self, policy=policy,
                                ledger=ledger)
        supervisor.start()
        self.supervisor = supervisor
        for frontend in self.frontends.values():
            frontend.stub.on_worker_timeout = supervisor.note_rpc_timeout
        return supervisor

    # -- graceful degradation (repro.degrade) --------------------------------

    def start_degradation(self) -> Any:
        """Start the brownout controller (opt-in) and wire it into
        every component that reads the ladder: live front ends (and,
        via :meth:`start_frontend`, every future one), the service, and
        the profile store (for the relaxed-reads level).  The service
        must be the degradable bench service, the one that reads the
        reduced-fidelity and serve-stale rungs; any other is refused."""
        from repro.degrade.controller import DegradationController
        from repro.degrade.service import DegradableBenchService
        if self.degradation is not None:
            raise FabricError("a degradation controller is already "
                              "running")
        if not isinstance(self.service, DegradableBenchService):
            raise FabricError(
                f"{type(self.service).__name__} reads no ladder rung; "
                "only the degradable bench service "
                "(service_backend='degradable') serves under brownout")
        controller = DegradationController(self.cluster, self.config, self)
        self.degradation = controller
        for frontend in self.frontends.values():
            frontend.degradation = controller
        self.service.degradation = controller
        if self.profile_store is not None \
                and hasattr(self.profile_store.backend, "degradation"):
            self.profile_store.backend.degradation = controller
        controller.start()
        return controller

    # -- client side ------------------------------------------------------------------------

    def alive_frontends(self) -> List[FrontEnd]:
        return [fe for fe in self.frontends.values() if fe.alive]

    def submit(self, record: Any):
        """Client entry: round-robin over live front ends.

        This is the paper's client-side balancing ("Client-side
        JavaScript support balances load across multiple front ends and
        masks transient front end failures").
        """
        frontends = [fe for fe in self.frontends.values() if fe.alive]
        alive = len(frontends)
        if not alive:
            # nobody home: the request hangs until the client times out
            return self.cluster.env.event()
        if alive > 1:
            frontends.sort(key=_BY_NAME)
        self._client_rr = (self._client_rr + 1) % alive
        return frontends[self._client_rr].submit(record)

    # -- convenience assembly ------------------------------------------------------------------

    def boot(self, n_frontends: int = 1,
             initial_workers: Optional[Dict[str, int]] = None
             ) -> "SNSFabric":
        """Start a minimal instance: manager + front ends (+ workers).

        Mirrors the Section 4.6 bootstrap: "Begin with a minimal
        instance of the system: one front end, one distiller, the
        manager, and some fixed number of cache partitions."
        """
        if not self.managers:
            self.start_manager()
        if self.monitor is None:
            # consensus boot: no election has run yet (time has not
            # advanced); co-locate with replica 0, the bootstrap
            # candidate
            manager = (self.manager if self.manager is not None
                       else self.managers[0])
            self.start_monitor(node=manager.node)
        for _ in range(n_frontends):
            self.start_frontend()
        for worker_type, count in (initial_workers or {}).items():
            for _ in range(count):
                self.spawn_worker(worker_type)
        return self
