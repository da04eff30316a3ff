"""Composable fault campaigns: scheduled sequences and mixes of faults.

A :class:`Campaign` is a declarative script — a workload plus a list of
fault *actions*, each pinned to a simulated time — that the
:class:`CampaignRunner` executes against a freshly built SNS fabric
while the :class:`~repro.chaos.invariants.InvariantChecker` watches.
Actions compose freely: clean kills and node crash-restart loops (the
paper's Section 4.5 faults) mix with the lossy-SAN fault model's
message loss, duplication, and delay jitter, straggler nodes, and
rolling kill loops, so overlapping fault sequences — the regime the
paper never measured — are one list literal away.

Preset campaigns live in :data:`CAMPAIGNS`; ``python -m repro chaos
<name>`` runs one from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.chaos.invariants import InvariantChecker
from repro.chaos.report import ChaosReport, build_report
from repro.core.config import SNSConfig
from repro.core.messages import BEACON_GROUP
from repro.experiments._harness import build_bench_fabric
from repro.recovery.ledger import RecoveryLedger
from repro.recovery.policy import RecoveryPolicy
from repro.sim.failures import FaultInjector, FaultRecord
from repro.sim.network import ANY_SCOPE, CHANNEL_SCOPE
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine
from repro.workload.trace import TraceRecord

WORKER_TYPE = "jpeg-distiller"


# -- the campaign DSL ---------------------------------------------------------

@dataclass
class Fault:
    """Base action: something bad happens at ``at`` seconds."""

    at: float

    @property
    def heals_at(self) -> float:
        """When this fault stops being injected (instant for kills)."""
        return self.at

    @property
    def needs_reregistration_check(self) -> bool:
        return False

    @property
    def node_specs(self) -> List[str]:
        """The symbolic node specs this action resolves at fire time
        (:func:`parse_node_spec`); checked by ``Campaign.validate``."""
        return []


def parse_node_spec(spec: str) -> Tuple[str, int]:
    """Split a symbolic node spec — ``manager | worker:<int> |
    frontend:<int> | <literal node name>`` — into ``(kind, index)``,
    ``kind`` one of ``manager``/``worker``/``frontend``/``node``."""
    kind, colon, index = spec.partition(":")
    if colon and kind in ("worker", "frontend"):
        if not index.isdigit():
            raise ValueError(f"node spec {spec!r}: expected "
                             f"{kind}:<int>, got index {index!r}")
        return kind, int(index)
    return ("manager" if spec == "manager" else "node"), 0


@dataclass
class KillWorker(Fault):
    """Kill ``count`` live workers (SIGKILL, Section 4.5's fault)."""

    count: int = 1


@dataclass
class KillManager(Fault):
    """Kill the manager; front-end watchdogs must restart it."""


@dataclass
class CrashWorkerNode(Fault):
    """Crash the node hosting a worker (taking the worker with it),
    optionally restarting the node after ``restart_after`` seconds."""

    restart_after: Optional[float] = None

    @property
    def heals_at(self) -> float:
        if self.restart_after is None:
            return self.at
        return self.at + self.restart_after


@dataclass
class PartitionWorker(Fault):
    """Cut one worker off the SAN for ``duration_s`` (Section 2.2.4)."""

    duration_s: float = 10.0

    @property
    def heals_at(self) -> float:
        return self.at + self.duration_s

    @property
    def needs_reregistration_check(self) -> bool:
        return True


@dataclass
class PartitionSAN(Fault):
    """Split the SAN: the nodes named by ``isolate`` end up in their own
    multicast/channel domain, cut off from everyone else until the
    window ends.

    ``isolate`` entries are *symbolic node specs* resolved at fire time,
    because populations churn: ``"manager"`` is whatever node hosts the
    current manager (or consensus leader) at that moment,
    ``"worker:<i>"`` the node of the i-th alive worker (sorted by
    name), ``"frontend:<i>"`` likewise; anything else is taken as a
    literal node name.
    """

    isolate: List[str] = field(default_factory=lambda: ["manager"])
    duration_s: float = 15.0

    @property
    def heals_at(self) -> float:
        return self.at + self.duration_s

    @property
    def node_specs(self) -> List[str]:
        return self.isolate

    @property
    def needs_reregistration_check(self) -> bool:
        return True


@dataclass
class AsymmetricLink(Fault):
    """One-way SAN reachability failure: traffic from ``src`` to ``dst``
    is blackholed while the reverse direction still works — the gray
    network fault that breaks failure detectors built on 'I can hear
    you, so you can hear me'.  Specs resolve like
    :class:`PartitionSAN`'s."""

    src: str = "worker:0"
    dst: str = "manager"
    duration_s: float = 10.0

    @property
    def heals_at(self) -> float:
        return self.at + self.duration_s

    @property
    def node_specs(self) -> List[str]:
        return [self.src, self.dst]

    @property
    def needs_reregistration_check(self) -> bool:
        return True


@dataclass
class LossyWindow(Fault):
    """Impose the lossy-SAN fault model on a traffic scope for a while.

    ``scope`` is a multicast group name (default: the manager beacon
    group), :data:`~repro.sim.network.CHANNEL_SCOPE` for reliable
    connections, or :data:`~repro.sim.network.ANY_SCOPE` for everything.
    """

    duration_s: float = 20.0
    scope: str = BEACON_GROUP
    loss: float = 0.2
    duplicate: float = 0.0
    jitter_s: float = 0.0

    @property
    def heals_at(self) -> float:
        return self.at + self.duration_s

    @property
    def needs_reregistration_check(self) -> bool:
        # dropped beacons can silently expire workers from the manager's
        # view; after the window heals the soft-state machinery must put
        # them back
        return self.loss > 0


@dataclass
class Straggle(Fault):
    """Degrade the CPU of a worker's node to ``factor`` of nominal
    without killing it — the fail-slow fault connection-based failure
    detection cannot see."""

    factor: float = 0.25
    duration_s: Optional[float] = None

    @property
    def heals_at(self) -> float:
        if self.duration_s is None:
            return self.at
        return self.at + self.duration_s


@dataclass
class RollingKills(Fault):
    """Kill one worker every ``period_s`` seconds for ``duration_s`` —
    the crash-restart churn loop ("recovery paths must be exercised
    constantly to stay cheap")."""

    duration_s: float = 20.0
    period_s: float = 5.0

    @property
    def heals_at(self) -> float:
        return self.at + self.duration_s


@dataclass
class GrayWorkerFault(Fault):
    """Base for gray failures: the victim worker stays alive and keeps
    beaconing load reports while failing at its actual job (Section 4.5's
    operational incidents).  ``heals_at == at`` deliberately — nothing
    in the fault heals itself; healing is the supervision layer's job
    and is measured by the recovery ledger, not assumed by the schedule.

    ``victim`` indexes into the gray-healthy live workers (sorted by
    name) at fire time, so one campaign can hit distinct workers.
    """

    victim: int = 0
    kind = "gray"

    def apply(self, stub: Any, now: float) -> None:
        raise NotImplementedError


@dataclass
class FailSlowWorker(GrayWorkerFault):
    """Inflate one worker's service time by ``factor`` (a sick disk,
    a misbehaving process) without killing it."""

    factor: float = 6.0
    kind = "fail-slow"

    def apply(self, stub: Any, now: float) -> None:
        stub.gray.fail_slow(self.factor, now)


@dataclass
class HangWorker(GrayWorkerFault):
    """The worker accepts its next request and never replies; the queue
    backs up behind it ("the RPC call to the distiller times out")."""

    kind = "hang"

    def apply(self, stub: Any, now: float) -> None:
        stub.gray.hang(now)


@dataclass
class ZombieWorker(GrayWorkerFault):
    """The worker keeps beaconing load reports but silently drops every
    submitted request — the balancer *prefers* its empty queue."""

    kind = "zombie"

    def apply(self, stub: Any, now: float) -> None:
        stub.gray.zombify(now)


@dataclass
class LeakWorker(GrayWorkerFault):
    """Monotonically degrading service rate — the Section 4.5
    memory-leak distiller 'cured' by periodic restarts."""

    rate_per_s: float = 0.5
    kind = "leak"

    def apply(self, stub: Any, now: float) -> None:
        stub.gray.leak(self.rate_per_s, now)


@dataclass
class CorruptOutput(GrayWorkerFault):
    """Requests complete on time but the output bytes fail end-to-end
    validation."""

    kind = "corrupt-output"

    def apply(self, stub: Any, now: float) -> None:
        stub.gray.corrupt_output(now)


@dataclass
class KillBrick(Fault):
    """kill -9 the profile brick on ``slot`` (dstore backend); the
    supervisor must notice the corpse and respawn it empty — cheap
    recovery's whole claim is that this costs a constant, not a replay.

    On the ``single`` backend the same action models the only possible
    equivalent: the one store goes down for restart **plus WAL replay
    proportional to committed transactions** — the cost curve the brick
    design exists to flatten.  The outage is entered into the ledger as
    an instantly-detected case healed at replay end, so the two
    backends' MTTR land in the same report column.
    """

    slot: int = 0


@dataclass
class GrayBrickFault(Fault):
    """Base for brick gray failures (dstore backend only): the brick
    stays alive while failing at its job.  Healing is the supervision
    layer's job, measured by the ledger, never assumed."""

    slot: int = 0
    kind = "gray"

    def apply(self, brick: Any, now: float) -> None:
        raise NotImplementedError


@dataclass
class FailSlowBrick(GrayBrickFault):
    """Inflate one brick's per-op service time without killing it; the
    supervisor's probe must flag the slow-ratio."""

    factor: float = 8.0
    kind = "fail-slow"

    def apply(self, brick: Any, now: float) -> None:
        brick.gray.fail_slow(self.factor, now)


@dataclass
class HangBrick(GrayBrickFault):
    """The brick stops answering the data plane and probes; quorum
    reads fall through to its replica peers meanwhile."""

    kind = "hang"

    def apply(self, brick: Any, now: float) -> None:
        brick.gray.hang(now)


@dataclass
class ZombieBrick(GrayBrickFault):
    """The brick acks every write and silently drops it while serving
    stale reads — the failure mode replication is specifically for.
    Detected by the probe's write-read canary, never by liveness."""

    kind = "zombie"

    def apply(self, brick: Any, now: float) -> None:
        brick.gray.zombify(now)


@dataclass
class Campaign:
    """A named, reproducible chaos scenario."""

    name: str
    description: str
    duration_s: float
    actions: List[Fault] = field(default_factory=list)
    # workload + topology
    rate_rps: float = 15.0
    n_nodes: int = 12
    n_frontends: int = 2
    initial_workers: int = 2
    client_timeout_s: float = 20.0
    #: bound for the end-of-run bounded-reply latency check; defaults
    #: to ``client_timeout_s``.  Setting it *below* the client timeout
    #: turns "slow but answered" into a violation — an SLO check, used
    #: by the tests that force a deadline violation deterministically.
    slo_latency_s: Optional[float] = None
    settle_s: float = 8.0
    #: :class:`SNSConfig` fields laid over :func:`chaos_config`.  The
    #: deployment is chosen here too (``manager_backend``,
    #: ``profile_backend``, ``service_backend``, ``routing_policy``);
    #: the CLI's ``--manager-backend`` / ``--profile-backend`` /
    #: ``--policy`` write into this mapping (:func:`get_campaign`).
    config_overrides: Dict[str, Any] = field(default_factory=dict)
    #: enable the self-healing supervision layer (repro.recovery) with
    #: this policy.  None (the default) runs without a supervisor, as
    #: all the clean-fault campaigns do.
    recovery: Optional[RecoveryPolicy] = None
    #: period of the deterministic profile-writer client (only runs
    #: when the config carries a profile backend).
    profile_write_interval_s: float = 1.0
    #: minimum profile read availability; checked as an invariant when
    #: set (reads during brick faults must be masked by the quorum).
    profile_read_slo: Optional[float] = None
    #: piecewise-constant offered load ``[(duration_s, rate_rps), ...]``
    #: replacing the constant-rate process when set — how the
    #: flash-crowd campaigns script their 10x burst.  Overload *is* the
    #: fault here, so these campaigns need no ``actions``.
    arrival_schedule: Optional[List[Tuple[float, float]]] = None
    #: distinct URLs/clients the engine cycles through; large pools
    #: defeat the result cache and drive cold misses to the origin.
    pool_size: int = 40
    #: input size of every pool record; distillation cost is linear in
    #: it, so this knob sets worker capacity relative to offered load.
    record_bytes: int = 10240
    #: fraction of pool records marked ``priority="batch"`` — the class
    #: priority-admission (ladder level 4) sheds first.
    batch_fraction: float = 0.0
    #: "controller" starts the closed-loop DegradationController after
    #: boot; None runs whatever the config armed statically.
    degradation: Optional[str] = None
    #: minimum end-of-run yield; checked as an invariant when set (the
    #: brownout controller's harvest-for-yield claim).
    yield_slo: Optional[float] = None

    @property
    def final_heal_s(self) -> float:
        """When the last scheduled fault stops being injected."""
        return max((action.heals_at for action in self.actions),
                   default=0.0)

    def validate(self) -> "Campaign":
        for action in self.actions:
            if action.at < 0:
                raise ValueError(f"{action} scheduled before t=0")
            if action.heals_at == float("inf"):
                raise ValueError(f"{action} never heals")
            for spec in action.node_specs:
                try:
                    parse_node_spec(spec)
                except ValueError as error:
                    raise ValueError(f"{action}: {error}") from None
        if self.final_heal_s >= self.duration_s:
            raise ValueError(
                f"campaign {self.name!r} ends at {self.duration_s}s "
                f"but its last fault heals at {self.final_heal_s}s; "
                "leave room to observe recovery")
        if self.arrival_schedule is not None:
            if not self.arrival_schedule:
                raise ValueError("arrival_schedule must not be empty")
            for duration, rate in self.arrival_schedule:
                if duration <= 0 or rate < 0:
                    raise ValueError(
                        f"bad arrival step ({duration}, {rate}): "
                        "duration must be positive, rate non-negative")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if not 0.0 <= self.batch_fraction < 1.0:
            raise ValueError("batch_fraction must be in [0, 1)")
        if self.degradation not in (None, "controller"):
            raise ValueError(
                f"unknown degradation mode {self.degradation!r}")
        if self.yield_slo is not None \
                and not 0.0 < self.yield_slo <= 1.0:
            raise ValueError("yield_slo must be in (0, 1]")
        return self


def chaos_config(**overrides) -> SNSConfig:
    """Campaign default config: fast soft-state refresh plus the
    hardened request path (deadline shedding + admission control)."""
    defaults: Dict[str, Any] = dict(
        beacon_interval_s=0.5,
        report_interval_s=0.5,
        spawn_threshold=6.0,
        spawn_damping_s=4.0,
        dispatch_timeout_s=3.0,
        worker_timeout_s=3.0,
        reap_after_s=60.0,
        frontend_connection_overhead_s=0.001,
        shed_expired_requests=True,
        admission_max_backlog_s=2.0,
    )
    defaults.update(overrides)
    return SNSConfig(**defaults)


# -- the runner ----------------------------------------------------------------

class CampaignRunner:
    """Builds a fabric, arms the campaign, runs it under load, and
    returns the availability report plus any invariant violations."""

    def __init__(self, campaign: Campaign, seed: int = 1997) -> None:
        self.campaign = campaign.validate()
        self.seed = seed
        self.fabric = build_bench_fabric(
            n_nodes=campaign.n_nodes, seed=seed,
            config=chaos_config(**campaign.config_overrides))
        self.cluster = self.fabric.cluster
        self.env = self.cluster.env
        self.faults = self.cluster.network.install_faults(
            self.cluster.streams.stream("chaos:netfaults"))
        self.injector = FaultInjector(
            self.env, self.cluster.streams.stream("chaos:faults"))
        self.checker = InvariantChecker(self.fabric)
        self.engine = PlaybackEngine(
            self.env, self.checker.checked_submit(self.fabric.submit),
            rng=RandomStreams(seed).stream("chaos:playback"),
            timeout_s=campaign.client_timeout_s)
        self.ledger = RecoveryLedger(self.env)
        if self.fabric.profile_bricks is not None:
            # rejoin records flow into the same ledger the report reads
            self.fabric.profile_bricks.ledger = self.ledger
        self.supervisor: Optional[Any] = None
        self.controller: Optional[Any] = None
        self._straggled: List[Any] = []
        #: deterministic profile-writer counters (attempted includes
        #: writes refused while the single store is down).
        self.profile_writes = {"attempted": 0, "committed": 0,
                               "failed": 0}

    # -- target selection (resolved at fire time: populations churn) -----

    def _alive_workers(self) -> List[Any]:
        return sorted(self.fabric.alive_workers(),
                      key=lambda stub: stub.name)

    def _at(self, time: float, fire: Callable[[], None]) -> None:
        def later():
            yield self.env.timeout(max(0.0, time - self.env.now))
            fire()
        self.env.process(later())

    def _resolve_node_spec(self, spec: str) -> Optional[str]:
        """Turn a symbolic node spec into a node name at fire time."""
        kind, index = parse_node_spec(spec)
        if kind == "manager":
            manager = self.fabric.manager
            if manager is None and self.fabric.manager_group is not None:
                group = self.fabric.manager_group
                manager = group.leader or group.replicas[0]
            return manager.node.name if manager is not None else None
        if kind == "worker":
            workers = self._alive_workers()
            if not workers:
                return None
            return workers[index % len(workers)].node.name
        if kind == "frontend":
            frontends = sorted(self.fabric.alive_frontends(),
                               key=lambda fe: fe.name)
            if not frontends:
                return None
            return frontends[index % len(frontends)].node.name
        return spec

    # -- arming actions ---------------------------------------------------------

    def _arm(self, action: Fault) -> None:
        if isinstance(action, KillWorker):
            def kill_workers(action=action):
                for stub in self._alive_workers()[:action.count]:
                    self.injector.kill_now(stub)
            self._at(action.at, kill_workers)
        elif isinstance(action, KillManager):
            def kill_manager():
                manager = self.fabric.manager
                if manager is not None and manager.alive:
                    self.injector.kill_now(manager)
            self._at(action.at, kill_manager)
        elif isinstance(action, CrashWorkerNode):
            def crash_node(action=action):
                workers = self._alive_workers()
                if not workers:
                    return
                node = workers[0].node
                node.crash()
                self.injector.log.append(
                    FaultRecord(self.env.now, "node-crash", node.name))
                for stub in list(self.fabric.workers.values()):
                    if stub.alive and stub.node is node:
                        self.injector.kill_now(stub)
                if action.restart_after is not None:
                    self._at(self.env.now + action.restart_after,
                             node.restart)
            self._at(action.at, crash_node)
        elif isinstance(action, PartitionWorker):
            def partition(action=action):
                workers = self._alive_workers()
                if workers:
                    self.injector.partition_at(
                        self.env.now, workers[0], action.duration_s)
            self._at(action.at, partition)
        elif isinstance(action, PartitionSAN):
            def partition_san(action=action):
                partitions = self.cluster.install_partitions()
                groups = {}
                for spec in action.isolate:
                    node_name = self._resolve_node_spec(spec)
                    if node_name is not None:
                        groups[node_name] = "isolated"
                if not groups:
                    return
                partitions.split(groups, duration_s=action.duration_s)
                self.injector.log.append(FaultRecord(
                    self.env.now, "san-partition",
                    "+".join(sorted(groups))))
            self._at(action.at, partition_san)
        elif isinstance(action, AsymmetricLink):
            def asymmetric(action=action):
                partitions = self.cluster.install_partitions()
                src = self._resolve_node_spec(action.src)
                dst = self._resolve_node_spec(action.dst)
                if src is None or dst is None or src == dst:
                    return
                partitions.one_way(src, dst,
                                   duration_s=action.duration_s)
                self.injector.log.append(FaultRecord(
                    self.env.now, "san-oneway", f"{src}->{dst}"))
            self._at(action.at, asymmetric)
        elif isinstance(action, LossyWindow):
            self.faults.impose(
                scope=action.scope, loss=action.loss,
                duplicate=action.duplicate, jitter_s=action.jitter_s,
                start=action.at, duration_s=action.duration_s)
        elif isinstance(action, Straggle):
            def straggle(action=action):
                workers = self._alive_workers()
                if not workers:
                    return
                node = workers[-1].node
                node.degrade(action.factor)
                self._straggled.append(node)
                if action.duration_s is not None:
                    self._at(self.env.now + action.duration_s,
                             node.recover_speed)
            self._at(action.at, straggle)
        elif isinstance(action, GrayWorkerFault):
            def inject_gray(action=action):
                candidates = [stub for stub in self._alive_workers()
                              if not stub.gray.is_gray]
                if not candidates:
                    return
                stub = candidates[action.victim % len(candidates)]
                now = self.env.now
                action.apply(stub, now)
                self.injector.log.append(
                    FaultRecord(now, action.kind, stub.name))
                self.ledger.inject(action.kind, stub.name)
            self._at(action.at, inject_gray)
        elif isinstance(action, RollingKills):
            self.injector.rolling_kills(
                self._alive_workers, start=action.at,
                period_s=action.period_s,
                stop_at=action.at + action.duration_s)
        elif isinstance(action, KillBrick):
            def kill_brick(action=action):
                bricks = self.fabric.profile_bricks
                if bricks is not None:
                    brick = bricks.brick_at(action.slot)
                    if brick is not None and brick.alive:
                        self.ledger.inject("brick-kill", brick.name)
                        self.injector.kill_now(brick)
                elif self.fabric.profile_store is not None:
                    self._kill_single_store()
            self._at(action.at, kill_brick)
        elif isinstance(action, GrayBrickFault):
            def inject_brick_gray(action=action):
                bricks = self.fabric.profile_bricks
                if bricks is None:
                    return  # single backend has no gray surface
                brick = bricks.brick_at(action.slot)
                if brick is None or not brick.alive \
                        or brick.gray.is_gray:
                    return
                now = self.env.now
                action.apply(brick, now)
                self.injector.log.append(
                    FaultRecord(now, action.kind, brick.name))
                self.ledger.inject(action.kind, brick.name)
            self._at(action.at, inject_brick_gray)
        else:
            raise TypeError(f"unknown campaign action {action!r}")

    def _kill_single_store(self) -> None:
        """Single-backend equivalent of a brick kill: the one store is
        down for restart **plus WAL replay proportional to committed
        transactions**.  The outage enters the ledger as an instantly
        detected case healed at replay end, so both backends' MTTR land
        in the same report column."""
        from repro.experiments._harness import (SINGLE_REPLAY_PER_TXN_S,
                                                SINGLE_RESTART_S)
        store = self.fabric.profile_store
        service = self.fabric.service
        now = self.env.now
        outage = SINGLE_RESTART_S + \
            SINGLE_REPLAY_PER_TXN_S * store.commits
        service.store_down_until = max(service.store_down_until,
                                       now + outage)
        self.injector.log.append(
            FaultRecord(now, "store-kill", "profile-store"))
        case = self.ledger.inject("brick-kill", "profile-store")
        case.detected_at = now
        case.detector = "restart-watchdog"
        case.detail = f"WAL replay of {store.commits} txns"
        self._at(now + outage,
                 lambda: self.ledger.note_healed(
                     case, "restart+replay", "profile-store"))

    # -- profile write load ------------------------------------------------

    def _profile_writer(self):
        """Deterministic profile-write client: round-robins users and
        front ends so the committed-write-loss invariant has state
        worth losing.  Versioned-tombstone deletes are part of the mix
        (every 10th op)."""
        from repro.dstore.store import QuorumError
        campaign = self.campaign
        service = self.fabric.service
        counter = 0
        while self.env.now + campaign.profile_write_interval_s \
                < campaign.duration_s:
            yield self.env.timeout(campaign.profile_write_interval_s)
            frontends = sorted(self.fabric.alive_frontends(),
                               key=lambda fe: fe.name)
            if not frontends:
                continue
            cache = service.profile_cache_for(
                frontends[counter % len(frontends)].name)
            user = f"client{counter % 40}"
            self.profile_writes["attempted"] += 1
            if not service.store_available:
                self.profile_writes["failed"] += 1
            else:
                try:
                    if counter % 10 == 9:
                        cache.delete(user, "quality")
                    elif counter % 3 == 0:
                        cache.set(user, "scale",
                                  round(0.1 + (counter % 9) / 10.0, 1))
                    else:
                        cache.set(user, "quality",
                                  5 + (counter * 7) % 90)
                    self.profile_writes["committed"] += 1
                except QuorumError:
                    self.profile_writes["failed"] += 1
            counter += 1

    def _profile_results(self) -> Dict[str, Any]:
        """Final profile-path verification + numbers for the report."""
        service = self.fabric.service
        store = self.fabric.profile_store
        lost = self.checker.final_profile_checks(
            store, service, read_slo=self.campaign.profile_read_slo)
        results = {
            "backend": self.fabric.config.profile_backend,
            "reads": service.profile_reads,
            "read_failures": service.profile_read_failures,
            "read_availability": service.profile_read_availability,
            "writes": dict(self.profile_writes),
            "lost_writes": lost,
            "store": (store.stats() if hasattr(store, "stats")
                      else {"commits": store.commits,
                            "aborts": store.aborts}),
        }
        if self.fabric.profile_bricks is not None:
            results["bricks"] = self.fabric.profile_bricks.stats()
        return results

    # -- execution ---------------------------------------------------------------

    def run(self) -> ChaosReport:
        campaign = self.campaign
        self.fabric.boot(
            n_frontends=campaign.n_frontends,
            initial_workers={WORKER_TYPE: campaign.initial_workers})
        if campaign.recovery is not None:
            self.supervisor = self.fabric.start_supervisor(
                campaign.recovery, ledger=self.ledger)
        if campaign.degradation == "controller":
            self.controller = self.fabric.start_degradation()
        self.cluster.run(until=2.0)

        # every Nth record is batch-class when a batch fraction is set,
        # so priority admission has a class to shed deterministically
        batch_every = (round(1.0 / campaign.batch_fraction)
                       if campaign.batch_fraction > 0 else 0)
        pool = [
            TraceRecord(0.0, f"client{index}",
                        f"http://chaos/img{index}.jpg", "image/jpeg",
                        campaign.record_bytes,
                        priority=("batch" if batch_every
                                  and index % batch_every
                                  == batch_every - 1
                                  else "interactive"))
            for index in range(campaign.pool_size)
        ]
        if campaign.arrival_schedule is not None:
            self.env.process(self.engine.ramp(
                campaign.arrival_schedule, pool))
        else:
            self.env.process(self.engine.constant_rate(
                campaign.rate_rps, campaign.duration_s, pool))
        if self.fabric.profile_store is not None:
            self.env.process(self._profile_writer())

        for action in campaign.actions:
            self._arm(action)
            if action.needs_reregistration_check:
                self.checker.expect_reregistration(action.heals_at)
        self.checker.expect_convergence(
            campaign.final_heal_s + campaign.settle_s)

        run_until = campaign.duration_s + campaign.client_timeout_s + \
            campaign.settle_s
        self.cluster.run(until=run_until)

        self.checker.final_checks(
            self.engine,
            max_latency_s=(campaign.slo_latency_s
                           if campaign.slo_latency_s is not None
                           else campaign.client_timeout_s))
        if campaign.yield_slo is not None:
            self.checker.final_yield_check(self.engine,
                                           campaign.yield_slo)
        profile = (self._profile_results()
                   if self.fabric.profile_store is not None else None)
        consensus = None
        if self.fabric.manager_group is not None:
            self.checker.final_consensus_checks(self.fabric.manager_group)
            consensus = self.fabric.manager_group.stats()
        return build_report(
            campaign=campaign, seed=self.seed, fabric=self.fabric,
            engine=self.engine, checker=self.checker,
            injector=self.injector, faults=self.faults,
            ledger=self.ledger, supervisor=self.supervisor,
            profile=profile, consensus=consensus,
            degradation=(self.controller.summary()
                         if self.controller is not None else None))


def run_campaign(campaign: Campaign, seed: int = 1997) -> ChaosReport:
    """Build, run, and report one campaign."""
    return CampaignRunner(campaign, seed=seed).run()


# -- preset campaigns ----------------------------------------------------------

def _smoke() -> Campaign:
    return Campaign(
        name="smoke",
        description="one worker kill + a short lossy-beacon window "
                    "(fast, deterministic; the CI gate)",
        duration_s=45.0,
        actions=[
            KillWorker(at=8.0),
            LossyWindow(at=12.0, duration_s=10.0, loss=0.3),
        ],
        rate_rps=10.0,
        n_nodes=8,
    )


def _mixed() -> Campaign:
    """The acceptance scenario: manager crash + 20% beacon loss + one
    straggler + a rolling worker-kill loop, all overlapping."""
    return Campaign(
        name="mixed",
        description="manager crash + lossy multicast (20% beacon loss) "
                    "+ straggler node + rolling worker-kill loop",
        duration_s=75.0,
        actions=[
            LossyWindow(at=10.0, duration_s=35.0, loss=0.20),
            Straggle(at=12.0, factor=0.25, duration_s=28.0),
            KillManager(at=16.0),
            RollingKills(at=18.0, duration_s=18.0, period_s=4.5),
        ],
    )


def _lossy_san() -> Campaign:
    return Campaign(
        name="lossy-san",
        description="escalating loss, duplication, and jitter on "
                    "beacons, then on everything including channels",
        duration_s=70.0,
        actions=[
            LossyWindow(at=8.0, duration_s=12.0, loss=0.3),
            LossyWindow(at=22.0, duration_s=12.0, loss=0.5,
                        duplicate=0.2, jitter_s=0.05),
            LossyWindow(at=36.0, duration_s=12.0, scope=ANY_SCOPE,
                        loss=0.2, jitter_s=0.02),
            LossyWindow(at=36.0, duration_s=12.0, scope=CHANNEL_SCOPE,
                        loss=0.15, jitter_s=0.05),
        ],
    )


def _partition_heal() -> Campaign:
    return Campaign(
        name="partition-heal",
        description="SAN partition + beacon loss overlapping, the "
                    "Section 2.2.4 scenario made dirty",
        duration_s=60.0,
        actions=[
            PartitionWorker(at=10.0, duration_s=15.0),
            LossyWindow(at=18.0, duration_s=14.0, loss=0.25),
            KillWorker(at=20.0),
        ],
    )


def _stragglers() -> Campaign:
    return Campaign(
        name="stragglers",
        description="fail-slow nodes under churn: two straggle windows "
                    "plus kills",
        duration_s=60.0,
        actions=[
            Straggle(at=8.0, factor=0.2, duration_s=20.0),
            KillWorker(at=14.0),
            Straggle(at=20.0, factor=0.5, duration_s=15.0),
            KillWorker(at=30.0),
        ],
        config_overrides=dict(load_metric="weighted-cost"),
    )


def _duplication() -> Campaign:
    return Campaign(
        name="duplication",
        description="heavy datagram duplication + jitter: registration "
                    "storms and double-delivery stress",
        duration_s=50.0,
        actions=[
            LossyWindow(at=8.0, duration_s=20.0, duplicate=0.5,
                        jitter_s=0.1),
            KillManager(at=14.0),
        ],
    )


def _crash_restart() -> Campaign:
    return Campaign(
        name="crash-restart",
        description="node crash-restart loops with beacon loss",
        duration_s=65.0,
        actions=[
            CrashWorkerNode(at=10.0, restart_after=15.0),
            LossyWindow(at=12.0, duration_s=20.0, loss=0.2),
            CrashWorkerNode(at=30.0, restart_after=10.0),
        ],
    )


def _gray_failures() -> Campaign:
    """The robustness acceptance scenario: every gray-failure mode
    injected into a supervised fabric, all of them detected and healed
    without human intervention."""
    return Campaign(
        name="gray-failures",
        description="fail-slow + hang + zombie + leak + corrupt-output "
                    "under self-healing supervision (probes, "
                    "RPC-timeout kills, load-outlier detection)",
        duration_s=110.0,
        actions=[
            HangWorker(at=10.0, victim=0),
            ZombieWorker(at=25.0, victim=1),
            FailSlowWorker(at=40.0, victim=0, factor=6.0),
            LeakWorker(at=55.0, victim=1, rate_per_s=0.5),
            CorruptOutput(at=70.0, victim=0),
        ],
        rate_rps=15.0,
        n_nodes=12,
        n_frontends=2,
        initial_workers=3,
        settle_s=25.0,
        recovery=RecoveryPolicy(),
    )


def _gray_smoke() -> Campaign:
    """Reduced-duration gray-failure campaign for the CI gate."""
    return Campaign(
        name="gray-smoke",
        description="hang + zombie + fail-slow under supervision "
                    "(reduced duration; the CI gate)",
        duration_s=60.0,
        actions=[
            HangWorker(at=8.0),
            ZombieWorker(at=20.0),
            FailSlowWorker(at=32.0, factor=6.0),
        ],
        rate_rps=12.0,
        n_nodes=10,
        n_frontends=2,
        initial_workers=3,
        settle_s=20.0,
        recovery=RecoveryPolicy(),
    )


def _brick_failures() -> Campaign:
    """The cheap-recovery acceptance scenario: kill and gray-fail
    profile bricks under live read+write load.  The invariants: zero
    committed profile writes lost (quorum overlap + authority protocol)
    and read availability ≥ 0.99 (faults masked by replica peers).
    Faults are spaced so anti-entropy finishes between them — two
    *overlapping* replica losses in an N=3/R=2 placement may lose the
    single surviving copy by design (that is the R=2 contract, not a
    bug)."""
    return Campaign(
        name="brick-failures",
        description="brick kill -9 x2 + fail-slow + zombie + hang "
                    "against the replicated profile store (N=3, R=2) "
                    "under supervision; zero committed-write loss and "
                    "0.99 read availability are invariants",
        duration_s=120.0,
        actions=[
            KillBrick(at=10.0, slot=0),
            FailSlowBrick(at=35.0, slot=1, factor=8.0),
            KillBrick(at=55.0, slot=2),
            ZombieBrick(at=75.0, slot=1),
            HangBrick(at=90.0, slot=0),
        ],
        rate_rps=12.0,
        n_nodes=10,
        n_frontends=2,
        initial_workers=3,
        settle_s=25.0,
        recovery=RecoveryPolicy(),
        config_overrides={"profile_backend": "dstore"},
        profile_write_interval_s=0.8,
        profile_read_slo=0.99,
    )


def _brick_smoke() -> Campaign:
    """Reduced brick-failure campaign for the CI gate."""
    return Campaign(
        name="brick-smoke",
        description="brick kill + fail-slow + zombie under supervision "
                    "(reduced duration; the CI gate for committed-write "
                    "loss)",
        duration_s=70.0,
        actions=[
            KillBrick(at=8.0, slot=0),
            FailSlowBrick(at=25.0, slot=1, factor=8.0),
            ZombieBrick(at=40.0, slot=2),
        ],
        rate_rps=10.0,
        n_nodes=8,
        n_frontends=2,
        initial_workers=3,
        settle_s=20.0,
        recovery=RecoveryPolicy(),
        config_overrides={"profile_backend": "dstore"},
        profile_write_interval_s=0.8,
        profile_read_slo=0.99,
    )


def _brick_failures_single() -> Campaign:
    """The comparison baseline: the same kill schedule against the
    single WAL-backed store.  Each kill takes the whole profile path
    down for restart + replay proportional to the commit count, so
    MTTR grows with log length and read availability dips — the exact
    numbers EXPERIMENTS.md tables against the dstore run."""
    return Campaign(
        name="brick-failures-single",
        description="the brick-failures kill schedule against the "
                    "single-node WAL store: outage = restart + replay "
                    "of the whole log (the cost cheap recovery "
                    "flattens)",
        duration_s=120.0,
        actions=[
            KillBrick(at=10.0),
            KillBrick(at=55.0),
        ],
        rate_rps=12.0,
        n_nodes=10,
        n_frontends=2,
        initial_workers=3,
        settle_s=25.0,
        config_overrides={"profile_backend": "single"},
        profile_write_interval_s=0.8,
    )


#: name -> zero-argument factory returning a fresh Campaign.
def _partition_failures() -> Campaign:
    """The consensus acceptance scenario: isolate the manager's node
    from the SAN twice (the second cut lands on whoever took over) with
    a one-way worker->manager gray link in between.  Run it under both
    ``--manager-backend`` values: the soft single manager gets deposed
    and replaced on stale views, the Paxos group fails over by
    election and must show zero wrong-decision dispatches.
    """
    return Campaign(
        name="partition-failures",
        description="two SAN partitions isolating the current manager "
                    "+ an asymmetric worker->manager link; soft vs "
                    "consensus control planes",
        duration_s=95.0,
        actions=[
            PartitionSAN(at=15.0, isolate=["manager"], duration_s=20.0),
            AsymmetricLink(at=45.0, src="worker:0", dst="manager",
                           duration_s=10.0),
            PartitionSAN(at=60.0, isolate=["manager"], duration_s=15.0),
        ],
        n_nodes=12,
        config_overrides={"manager_self_deposition": True},
    )


def _partition_smoke() -> Campaign:
    """Reduced partition campaign for the CI gate (both backends)."""
    return Campaign(
        name="partition-smoke",
        description="one SAN partition isolating the manager + a short "
                    "asymmetric link (fast; the CI partition gate)",
        duration_s=60.0,
        actions=[
            PartitionSAN(at=10.0, isolate=["manager"], duration_s=12.0),
            AsymmetricLink(at=30.0, src="worker:0", dst="manager",
                           duration_s=8.0),
        ],
        rate_rps=10.0,
        n_nodes=10,
        config_overrides={"manager_self_deposition": True},
    )


#: the flash-crowd load shape: 20s warm-up at the nominal rate, a 15s
#: 10x burst, then 45s of recovery at the nominal rate again.
_FLASH_SCHEDULE: List[Tuple[float, float]] = [
    (20.0, 12.0), (15.0, 120.0), (45.0, 12.0)]


def _flash_crowd_campaign(**kwargs) -> Campaign:
    """Shared shape of the two flash-crowd arms: identical topology,
    load, pool, and degradable service — the arms differ *only* in
    whether the brownout defenses are armed, so the yield gap between
    the reports is attributable to the controller."""
    base: Dict[str, Any] = dict(
        duration_s=80.0,
        actions=[],
        arrival_schedule=list(_FLASH_SCHEDULE),
        n_nodes=8,
        n_frontends=2,
        initial_workers=3,
        client_timeout_s=20.0,
        settle_s=8.0,
        pool_size=400,
        batch_fraction=0.15,
        record_bytes=24576,
    )
    base.update(kwargs)
    overrides: Dict[str, Any] = dict(
        profile_backend="dstore",
        service_backend="degradable",
        frontend_threads=60,
        # pin capacity: the burst must not be rescued by the autoscaler
        # mid-flight, or the arms would measure spawn latency instead
        # of the degradation ladder
        spawn_threshold=1000.0,
        spawn_damping_s=60.0,
    )
    overrides.update(base.pop("config_overrides", {}))
    base["config_overrides"] = overrides
    return Campaign(**base)


def _flash_crowd() -> Campaign:
    """The brownout acceptance scenario: a 10x offered-load burst that
    the controller must ride out by spending harvest — forced
    low-fidelity distillation, stale serves, relaxed profile reads —
    while the retry budget and origin breaker keep the overload from
    amplifying itself.  Yield >= 0.99 is an invariant."""
    return _flash_crowd_campaign(
        name="flash-crowd",
        description="10x offered-load burst against the brownout "
                    "controller (ladder + retry budget + origin "
                    "breaker); yield >= 0.99 is an invariant",
        degradation="controller",
        yield_slo=0.99,
        config_overrides=dict(
            admission_exit_backlog_s=1.0,
            retry_budget_ratio=0.1,
            retry_budget_cap=10.0,
            origin_breaker_failures=3,
            degrade_util_target=0.85,
        ),
    )


def _flash_crowd_baseline() -> Campaign:
    """The comparison arm: same burst, same service and cost model,
    every brownout defense off — binary admission control only,
    unlimited retries, no breaker.  EXPERIMENTS.md tables its yield
    against the controller arm's."""
    return _flash_crowd_campaign(
        name="flash-crowd-baseline",
        description="the same 10x burst with every brownout defense "
                    "off: binary shed only, unlimited retries, no "
                    "origin breaker",
    )


CAMPAIGNS: Dict[str, Callable[[], Campaign]] = {
    "smoke": _smoke,
    "mixed": _mixed,
    "lossy-san": _lossy_san,
    "partition-heal": _partition_heal,
    "stragglers": _stragglers,
    "duplication": _duplication,
    "crash-restart": _crash_restart,
    "gray-failures": _gray_failures,
    "gray-smoke": _gray_smoke,
    "brick-failures": _brick_failures,
    "brick-smoke": _brick_smoke,
    "brick-failures-single": _brick_failures_single,
    "partition-failures": _partition_failures,
    "partition-smoke": _partition_smoke,
    "flash-crowd": _flash_crowd,
    "flash-crowd-baseline": _flash_crowd_baseline,
}


def get_campaign(name: str,
                 overrides: Optional[Mapping[str, Any]] = None
                 ) -> Campaign:
    """A fresh preset campaign, with ``overrides`` (:class:`SNSConfig`
    fields — how a run picks another deployment) laid over the
    preset's own ``config_overrides``."""
    if name not in CAMPAIGNS:
        raise KeyError(
            f"unknown campaign {name!r}; "
            f"available: {', '.join(sorted(CAMPAIGNS))}")
    campaign = CAMPAIGNS[name]()
    campaign.config_overrides.update(overrides or {})
    return campaign
