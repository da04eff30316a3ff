"""Composable fault campaigns: scheduled sequences and mixes of faults.

A :class:`Campaign` is a declarative script — a workload plus a tuple of
fault *actions*, each pinned to a simulated time — that the
:class:`CampaignRunner` executes against a freshly built SNS fabric
while the :class:`~repro.chaos.invariants.InvariantChecker` watches.
Actions compose freely: clean kills and node crash-restart loops (the
paper's Section 4.5 faults) mix with the lossy-SAN fault model's
message loss, duplication, and delay jitter, straggler nodes, and
rolling kill loops, so overlapping fault sequences — the regime the
paper never measured — are one tuple literal away.

A fault kind is one frozen dataclass: :meth:`Fault.check` refuses a bad
field before any fabric is built, and ``fire`` injects it at ``at`` on
a target resolved then.  The presets are data (:data:`CAMPAIGNS`);
``python -m repro chaos <name>`` runs one.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import (Any, Callable, ClassVar, Dict, List, Mapping, Optional,
                    Tuple)

from repro.chaos.invariants import InvariantChecker
from repro.chaos.report import ChaosReport, build_report
from repro.core.config import SNSConfig
from repro.core.messages import BEACON_GROUP
from repro.experiments._harness import (SINGLE_REPLAY_PER_TXN_S,
                                        SINGLE_RESTART_S, build_bench_fabric)
from repro.recovery.gray import GrayState
from repro.recovery.ledger import RecoveryLedger
from repro.recovery.policy import RecoveryPolicy
from repro.sim.failures import FaultInjector, FaultRecord
from repro.sim.network import ANY_SCOPE, CHANNEL_SCOPE, FaultWindow
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine
from repro.workload.trace import TraceRecord

WORKER_TYPE = "jpeg-distiller"
#: front ends every campaign boots.
N_FRONTENDS = 2
#: every campaign client's deadline; also the end-of-run bounded-reply
#: bound unless a campaign sets a tighter ``slo_latency_s``.
CLIENT_TIMEOUT_S = 20.0
#: service-time multiplier of a fail-slow worker and of a fail-slow brick.
WORKER_SLOW_FACTOR = 6.0
BRICK_SLOW_FACTOR = 8.0
#: a leaking worker's service time grows by this fraction per second.
LEAK_RATE_PER_S = 0.5
#: seconds between the kills of a :class:`RollingKills` loop.
ROLLING_KILL_PERIOD_S = 4.5

#: gray mode (also its timeline and ledger kind) -> how it switches a
#: worker's :class:`GrayState` on at ``now``.
WORKER_GRAY_MODES: Dict[str, Callable[[GrayState, float], None]] = {
    "fail-slow": lambda gray, now: gray.fail_slow(WORKER_SLOW_FACTOR, now),
    "hang": GrayState.hang,
    "zombie": GrayState.zombify,
    "leak": lambda gray, now: gray.leak(LEAK_RATE_PER_S, now),
    "corrupt-output": GrayState.corrupt_output,
}
#: the three modes a profile brick honours (repro.dstore.brick).
BRICK_GRAY_MODES: Dict[str, Callable[[GrayState, float], None]] = {
    "fail-slow": lambda gray, now: gray.fail_slow(BRICK_SLOW_FACTOR, now),
    "hang": GrayState.hang,
    "zombie": GrayState.zombify,
}


# -- the campaign DSL ---------------------------------------------------------

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


@dataclass(frozen=True)
class Fault:
    """Base action: something bad happens at ``at`` seconds.

    A kind defines ``fire(runner)``, called at ``at``, or overrides
    :meth:`arm` to declare its whole window up front.  A windowed kind
    declares a ``duration_s`` field *with a default* (else the ``None``
    below becomes it) and heals at ``at + duration_s``; an instant kind
    (kills, gray failures) has none and heals at ``at``.
    """

    at: float
    duration_s: ClassVar[Optional[float]] = None
    #: what firing records on the fault timeline or the recovery ledger
    #: (None: nothing; the effect shows in the report's numbers).
    kind: ClassVar[Optional[str]] = None
    #: every worker live at the heal must re-register in time.
    reregisters: ClassVar[bool] = False

    @property
    def heals_at(self) -> float:
        """When this fault stops being injected."""
        return self.at + (self.duration_s or 0.0)

    def check(self) -> None:
        """Refuse a bad field before a fabric is built
        (:meth:`Campaign.validate` names the action)."""
        self._require(0.0 <= self.at < float("inf"), "at", self.at,
                      "must be a finite time >= 0")
        if self.duration_s is not None:
            self._require(0.0 < self.duration_s < float("inf"), "duration_s",
                          self.duration_s, "must be finite and > 0")

    def _require(self, ok: bool, name: str, value: Any, rule: str) -> None:
        if not ok:
            raise ValueError(f"{name}={value!r} {rule}")

    def arm(self, runner: "CampaignRunner") -> None:
        runner._at(self.at, lambda: self.fire(runner))


@dataclass(frozen=True)
class KillWorker(Fault):
    """Kill the first live worker (SIGKILL, Section 4.5's fault)."""

    kind = "kill"

    def fire(self, runner: "CampaignRunner") -> None:
        workers = runner._alive_workers()
        if workers:
            runner.injector.kill_now(workers[0])


@dataclass(frozen=True)
class KillManager(Fault):
    """Kill the manager: front-end watchdogs must restart a soft one;
    under the consensus backend it is the leader replica, and the group
    must elect another."""

    kind = "kill"

    def fire(self, runner: "CampaignRunner") -> None:
        manager = runner.fabric.manager
        if manager is not None and manager.alive:
            runner.injector.kill_now(manager)


@dataclass(frozen=True)
class CrashWorkerNode(Fault):
    """Crash the node hosting the first live worker (taking its workers
    with it) and restart the node ``duration_s`` later."""

    duration_s: float = 15.0
    kind = "node-crash"

    def fire(self, runner: "CampaignRunner") -> None:
        workers = runner._alive_workers()
        if not workers:
            return
        node = workers[0].node
        node.crash()
        runner._log(self.kind, node.name)
        for stub in list(runner.fabric.workers.values()):
            if stub.alive and stub.node is node:
                runner.injector.kill_now(stub)
        runner._at(runner.env.now + self.duration_s, node.restart)


@dataclass(frozen=True)
class PartitionWorker(Fault):
    """Cut the first live worker off the SAN for ``duration_s``
    (Section 2.2.4)."""

    duration_s: float = 10.0
    kind = "partition"
    reregisters = True

    def fire(self, runner: "CampaignRunner") -> None:
        workers = runner._alive_workers()
        if workers:
            runner.injector.partition_at(runner.env.now, workers[0],
                                         self.duration_s)


@dataclass(frozen=True)
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

    isolate: Tuple[str, ...] = ("manager",)
    duration_s: float = 15.0
    kind = "san-partition"
    reregisters = True

    def check(self) -> None:
        super().check()
        self._require(len(self.isolate) > 0, "isolate", self.isolate,
                      "must name a node")
        for spec in self.isolate:
            parse_node_spec(spec)

    def fire(self, runner: "CampaignRunner") -> None:
        partitions = runner.cluster.install_partitions()
        groups = {name: "isolated" for name in
                  map(runner._resolve_node_spec, self.isolate)
                  if name is not None}
        if groups:
            partitions.split(groups, duration_s=self.duration_s)
            runner._log(self.kind, "+".join(sorted(groups)))


@dataclass(frozen=True)
class AsymmetricLink(Fault):
    """One-way SAN reachability failure: traffic from ``src`` to ``dst``
    is blackholed while the reverse direction still works — the gray
    network fault that breaks failure detectors built on 'I can hear
    you, so you can hear me'.  Specs resolve like
    :class:`PartitionSAN`'s."""

    src: str = "worker:0"
    dst: str = "manager"
    duration_s: float = 10.0
    kind = "san-oneway"
    reregisters = True

    def check(self) -> None:
        super().check()
        self._require(self.src != self.dst, "dst", self.dst,
                      "must differ from src")
        parse_node_spec(self.src)
        parse_node_spec(self.dst)

    def fire(self, runner: "CampaignRunner") -> None:
        partitions = runner.cluster.install_partitions()
        src = runner._resolve_node_spec(self.src)
        dst = runner._resolve_node_spec(self.dst)
        if src is None or dst is None or src == dst:
            return
        partitions.one_way(src, dst, duration_s=self.duration_s)
        runner._log(self.kind, f"{src}->{dst}")


@dataclass(frozen=True)
class LossyWindow(Fault):
    """Impose the lossy-SAN fault model on ``scope`` — a multicast group
    (default: the manager beacons), :data:`~repro.sim.network.CHANNEL_SCOPE`
    or :data:`~repro.sim.network.ANY_SCOPE` — for a while.  Lost beacons
    can silently expire workers; after the window soft state must put
    them back."""

    duration_s: float = 20.0
    scope: str = BEACON_GROUP
    loss: float = 0.2
    duplicate: float = 0.0
    jitter_s: float = 0.0
    reregisters = True

    def check(self) -> None:
        super().check()
        FaultWindow(self.scope, self.at, self.heals_at, loss=self.loss,
                    duplicate=self.duplicate, jitter_s=self.jitter_s)
        self._require(self.loss > 0 or self.duplicate > 0
                      or self.jitter_s > 0, "loss", self.loss,
                      "with no duplicate or jitter_s imposes nothing")

    def arm(self, runner: "CampaignRunner") -> None:
        # a declared window: no process, nothing resolved at fire time
        runner.faults.impose(
            scope=self.scope, loss=self.loss, duplicate=self.duplicate,
            jitter_s=self.jitter_s, start=self.at,
            duration_s=self.duration_s)


@dataclass(frozen=True)
class Straggle(Fault):
    """Degrade the CPU of the last live worker's node to ``factor`` of
    nominal for ``duration_s`` without killing it — the fail-slow fault
    connection-based failure detection cannot see."""

    factor: float = 0.25
    duration_s: float = 20.0

    def check(self) -> None:
        super().check()
        self._require(0.0 < self.factor < 1.0, "factor", self.factor,
                      "must be in (0, 1)")

    def fire(self, runner: "CampaignRunner") -> None:
        workers = runner._alive_workers()
        if workers:
            node = workers[-1].node
            node.degrade(self.factor)
            runner._at(runner.env.now + self.duration_s,
                       node.recover_speed)


@dataclass(frozen=True)
class RollingKills(Fault):
    """Kill one worker every :data:`ROLLING_KILL_PERIOD_S` seconds for
    ``duration_s`` — the crash-restart churn loop ("recovery paths must
    be exercised constantly to stay cheap")."""

    duration_s: float = 20.0
    kind = "kill"

    def check(self) -> None:
        super().check()
        self._require(self.duration_s >= ROLLING_KILL_PERIOD_S, "duration_s",
                      self.duration_s, "must cover one kill period")

    def arm(self, runner: "CampaignRunner") -> None:
        runner.injector.rolling_kills(
            runner._alive_workers, start=self.at,
            period_s=ROLLING_KILL_PERIOD_S, stop_at=self.heals_at)


@dataclass(frozen=True)
class GrayWorker(Fault):
    """A gray failure (Section 4.5's operational incidents): the victim
    worker stays alive and keeps beaconing load reports while failing
    at its job in ``mode`` (:data:`WORKER_GRAY_MODES`).  Healing is the
    supervision layer's job, measured by the ledger, never assumed.
    ``victim`` indexes the gray-healthy live workers (sorted by name)
    at fire time, so one campaign can hit distinct workers."""

    mode: str
    victim: int = 0
    modes = WORKER_GRAY_MODES

    @property
    def kind(self) -> str:
        return self.mode

    def check(self) -> None:
        super().check()
        self._require(self.mode in self.modes, "mode", self.mode,
                      f"must be one of {sorted(self.modes)}")
        self._require(self.victim >= 0, "victim", self.victim, "must be >= 0")

    def fire(self, runner: "CampaignRunner") -> None:
        candidates = [stub for stub in runner._alive_workers()
                      if not stub.gray.is_gray]
        if candidates:
            runner._inject_gray(self,
                                candidates[self.victim % len(candidates)])


@dataclass(frozen=True)
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
    kind = "brick-kill"

    def check(self) -> None:
        super().check()
        self._require(self.slot >= 0, "slot", self.slot, "must be >= 0")

    def fire(self, runner: "CampaignRunner") -> None:
        bricks = runner.fabric.profile_bricks
        if bricks is not None:
            brick = bricks.brick_at(self.slot % bricks.n_bricks)
            if brick is not None and brick.alive:
                runner.ledger.inject(self.kind, brick.name)
                runner.injector.kill_now(brick)
        elif runner.fabric.profile_store is not None:
            self._kill_single_store(runner)

    def _kill_single_store(self, runner: "CampaignRunner") -> None:
        store, service = runner.fabric.profile_store, runner.fabric.service
        now = runner.env.now
        outage = SINGLE_RESTART_S + SINGLE_REPLAY_PER_TXN_S * store.commits
        service.store_down_until = max(service.store_down_until,
                                       now + outage)
        runner._log("store-kill", "profile-store")
        case = runner.ledger.inject(self.kind, "profile-store")
        case.detected_at = now
        case.detector = "restart-watchdog"
        case.detail = f"WAL replay of {store.commits} txns"
        runner._at(now + outage,
                   lambda: runner.ledger.note_healed(
                       case, "restart+replay", "profile-store"))


@dataclass(frozen=True)
class GrayBrick(Fault):
    """A gray failure of the profile brick on ``slot`` in ``mode``
    (:data:`BRICK_GRAY_MODES`): a hung brick leaves quorum reads to its
    replica peers, a zombie acks writes and drops them (caught by the
    probe's write-read canary, never by liveness).  A no-op on the
    ``single`` backend, which has no gray surface."""

    mode: str
    slot: int = 0
    modes = BRICK_GRAY_MODES

    @property
    def kind(self) -> str:
        return self.mode

    def check(self) -> None:
        super().check()
        self._require(self.mode in self.modes, "mode", self.mode,
                      f"must be one of {sorted(self.modes)}")
        self._require(self.slot >= 0, "slot", self.slot, "must be >= 0")

    def fire(self, runner: "CampaignRunner") -> None:
        bricks = runner.fabric.profile_bricks
        if bricks is None:
            return
        brick = bricks.brick_at(self.slot % bricks.n_bricks)
        if brick is not None and brick.alive and not brick.gray.is_gray:
            runner._inject_gray(self, brick)


@dataclass(frozen=True)
class Campaign:
    """A named, reproducible chaos scenario."""

    name: str
    description: str
    duration_s: float
    actions: Tuple[Fault, ...] = ()
    # workload + topology
    rate_rps: float = 15.0
    n_nodes: int = 12
    initial_workers: int = 2
    #: bound for the end-of-run bounded-reply latency check.  Setting it
    #: *below* the client timeout turns "slow but answered" into a
    #: violation — an SLO check, used by the tests that force a deadline
    #: violation deterministically.
    slo_latency_s: float = CLIENT_TIMEOUT_S
    settle_s: float = 8.0
    #: :class:`SNSConfig` fields laid over :func:`chaos_config`.  The
    #: deployment is chosen here too (``manager_backend``,
    #: ``profile_backend``, ``service_backend``, ``routing_policy``);
    #: the CLI's ``--manager-backend`` / ``--profile-backend`` /
    #: ``--policy`` write into this mapping (:func:`get_campaign`).
    config_overrides: Mapping[str, Any] = field(default_factory=dict)
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
    #: piecewise-constant offered load ``((duration_s, rate_rps), ...)``
    #: replacing the constant-rate process when set — how the
    #: flash-crowd campaigns script their 10x burst.  Overload *is* the
    #: fault here, so these campaigns need no ``actions``.
    arrival_schedule: Optional[Tuple[Tuple[float, float], ...]] = None
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
            try:
                action.check()
            except ValueError as error:
                raise ValueError(f"{action!r}: {error}") from None
        if self.final_heal_s >= self.duration_s:
            raise ValueError(
                f"campaign {self.name!r} ends at {self.duration_s}s "
                f"but its last fault heals at {self.final_heal_s}s; "
                "leave room to observe recovery")
        if self.arrival_schedule is not None and not self.arrival_schedule:
            raise ValueError("arrival_schedule must not be empty")
        for duration, rate in self.arrival_schedule or ():
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
        beacon_interval_s=0.5, report_interval_s=0.5,
        spawn_threshold=6.0, spawn_damping_s=4.0,
        dispatch_timeout_s=3.0, worker_timeout_s=3.0, reap_after_s=60.0,
        frontend_connection_overhead_s=0.001, shed_expired_requests=True,
        admission_max_backlog_s=2.0)
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
            timeout_s=CLIENT_TIMEOUT_S)
        self.ledger = RecoveryLedger(self.env)
        if self.fabric.profile_bricks is not None:
            # rejoin records flow into the same ledger the report reads
            self.fabric.profile_bricks.ledger = self.ledger
        self.supervisor: Optional[Any] = None
        self.controller: Optional[Any] = None
        #: deterministic profile-writer counters (attempted includes
        #: writes refused while the single store is down).
        self.profile_writes = {"attempted": 0, "committed": 0, "failed": 0}

    # -- what faults fire through (targets resolve at fire time) ----------

    def _alive_workers(self) -> List[Any]:
        return sorted(self.fabric.alive_workers(), key=lambda stub: stub.name)

    def _at(self, time: float, fire: Callable[[], None]) -> None:
        def later():
            yield self.env.timeout(max(0.0, time - self.env.now))
            fire()
        self.env.process(later())

    def _resolve_node_spec(self, spec: str) -> Optional[str]:
        """Turn a symbolic node spec into a node name at fire time."""
        kind, index = parse_node_spec(spec)
        if kind == "node":
            return spec
        if kind == "manager":
            manager = self.fabric.manager
            if manager is None and self.fabric.manager_group is not None:
                group = self.fabric.manager_group
                manager = group.leader or group.replicas[0]
            return manager.node.name if manager is not None else None
        peers = (self._alive_workers() if kind == "worker" else
                 sorted(self.fabric.alive_frontends(),
                        key=lambda fe: fe.name))
        return peers[index % len(peers)].node.name if peers else None

    def _log(self, kind: str, target: str) -> None:
        self.injector.log.append(FaultRecord(self.env.now, kind, target))

    def _inject_gray(self, fault: Any, target: Any) -> None:
        fault.modes[fault.mode](target.gray, self.env.now)
        self._log(fault.kind, target.name)
        self.ledger.inject(fault.kind, target.name)

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
            "store": store.stats(),
        }
        if self.fabric.profile_bricks is not None:
            results["bricks"] = self.fabric.profile_bricks.stats()
        return results

    # -- execution ---------------------------------------------------------------

    def run(self) -> ChaosReport:
        campaign = self.campaign
        self.fabric.boot(
            n_frontends=N_FRONTENDS,
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
        pool = [TraceRecord(0.0, f"client{index}",
                            f"http://chaos/img{index}.jpg", "image/jpeg",
                            campaign.record_bytes,
                            priority=("batch" if batch_every and index
                                      % batch_every == batch_every - 1
                                      else "interactive"))
                for index in range(campaign.pool_size)]
        if campaign.arrival_schedule is not None:
            self.env.process(self.engine.ramp(
                campaign.arrival_schedule, pool))
        else:
            self.env.process(self.engine.constant_rate(
                campaign.rate_rps, campaign.duration_s, pool))
        if self.fabric.profile_store is not None:
            self.env.process(self._profile_writer())

        for action in campaign.actions:
            action.arm(self)
            if action.reregisters:
                self.checker.expect_reregistration(action.heals_at)
        self.checker.expect_convergence(
            campaign.final_heal_s + campaign.settle_s)

        self.cluster.run(until=campaign.duration_s + CLIENT_TIMEOUT_S
                         + campaign.settle_s)

        self.checker.final_checks(self.engine,
                                  max_latency_s=campaign.slo_latency_s)
        if campaign.yield_slo is not None:
            self.checker.final_yield_check(self.engine, campaign.yield_slo)
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

#: the gray and brick campaigns' fabric: three workers under the
#: self-healing supervisor (get_campaign copies the shared policy).
_SUPERVISED: Dict[str, Any] = dict(initial_workers=3,
                                   recovery=RecoveryPolicy())
#: the brick campaigns' live profile load and read-availability SLO.
_BRICK_LOAD: Dict[str, Any] = dict(profile_write_interval_s=0.8,
                                   profile_read_slo=0.99)
#: the two flash-crowd arms share topology, load, pool, and degradable
#: service — they differ *only* in whether the brownout defenses are
#: armed, so the yield gap between the reports is attributable to the
#: controller.  The load: 20s warm-up at the nominal rate, a 15s 10x
#: burst, then 45s of recovery at the nominal rate again.
_FLASH_CROWD: Dict[str, Any] = dict(
    duration_s=80.0, n_nodes=8, initial_workers=3, pool_size=400,
    batch_fraction=0.15, record_bytes=24576,
    arrival_schedule=((20.0, 12.0), (15.0, 120.0), (45.0, 12.0)))
_FLASH_CONFIG: Dict[str, Any] = dict(
    profile_backend="dstore", service_backend="degradable",
    frontend_threads=60,
    # pin capacity: the burst must not be rescued by the autoscaler
    # mid-flight, or the arms would measure spawn latency instead of
    # the degradation ladder
    spawn_threshold=1000.0, spawn_damping_s=60.0)

#: name -> preset; a template, so run what :func:`get_campaign` returns.
CAMPAIGNS: Dict[str, Campaign] = {campaign.name: campaign for campaign in (
    Campaign(
        name="smoke", duration_s=45.0, rate_rps=10.0, n_nodes=8,
        description="one worker kill + a short lossy-beacon window "
                    "(fast, deterministic; the CI gate)",
        actions=(KillWorker(at=8.0),
                 LossyWindow(at=12.0, duration_s=10.0, loss=0.3))),
    # the acceptance scenario: all four overlap
    Campaign(
        name="mixed", duration_s=75.0,
        description="manager crash + lossy multicast (20% beacon loss) "
                    "+ straggler node + rolling worker-kill loop",
        actions=(LossyWindow(at=10.0, duration_s=35.0, loss=0.20),
                 Straggle(at=12.0, factor=0.25, duration_s=28.0),
                 KillManager(at=16.0),
                 RollingKills(at=18.0, duration_s=18.0))),
    Campaign(
        name="lossy-san", duration_s=70.0,
        description="escalating loss, duplication, and jitter on "
                    "beacons, then on everything including channels",
        actions=(LossyWindow(at=8.0, duration_s=12.0, loss=0.3),
                 LossyWindow(at=22.0, duration_s=12.0, loss=0.5,
                             duplicate=0.2, jitter_s=0.05),
                 LossyWindow(at=36.0, duration_s=12.0, scope=ANY_SCOPE,
                             loss=0.2, jitter_s=0.02),
                 LossyWindow(at=36.0, duration_s=12.0,
                             scope=CHANNEL_SCOPE, loss=0.15,
                             jitter_s=0.05))),
    Campaign(
        name="partition-heal", duration_s=60.0,
        description="SAN partition + beacon loss overlapping, the "
                    "Section 2.2.4 scenario made dirty",
        actions=(PartitionWorker(at=10.0, duration_s=15.0),
                 LossyWindow(at=18.0, duration_s=14.0, loss=0.25),
                 KillWorker(at=20.0))),
    Campaign(
        name="stragglers", duration_s=60.0,
        config_overrides={"load_metric": "weighted-cost"},
        description="fail-slow nodes under churn: two straggle windows "
                    "plus kills",
        actions=(Straggle(at=8.0, factor=0.2, duration_s=20.0),
                 KillWorker(at=14.0),
                 Straggle(at=20.0, factor=0.5, duration_s=15.0),
                 KillWorker(at=30.0))),
    Campaign(
        name="duplication", duration_s=50.0,
        description="heavy datagram duplication + jitter: registration "
                    "storms and double-delivery stress",
        actions=(LossyWindow(at=8.0, duration_s=20.0, duplicate=0.5,
                             jitter_s=0.1),
                 KillManager(at=14.0))),
    Campaign(
        name="crash-restart", duration_s=65.0,
        description="node crash-restart loops with beacon loss",
        actions=(CrashWorkerNode(at=10.0, duration_s=15.0),
                 LossyWindow(at=12.0, duration_s=20.0, loss=0.2),
                 CrashWorkerNode(at=30.0, duration_s=10.0))),
    # the robustness acceptance scenario: every gray-failure mode
    # injected into a supervised fabric, all of them detected and
    # healed without human intervention
    Campaign(
        name="gray-failures", duration_s=110.0, settle_s=25.0, **_SUPERVISED,
        description="fail-slow + hang + zombie + leak + corrupt-output "
                    "under self-healing supervision (probes, "
                    "RPC-timeout kills, load-outlier detection)",
        actions=(GrayWorker(at=10.0, mode="hang", victim=0),
                 GrayWorker(at=25.0, mode="zombie", victim=1),
                 GrayWorker(at=40.0, mode="fail-slow", victim=0),
                 GrayWorker(at=55.0, mode="leak", victim=1),
                 GrayWorker(at=70.0, mode="corrupt-output", victim=0))),
    Campaign(
        name="gray-smoke", duration_s=60.0, rate_rps=12.0, n_nodes=10,
        settle_s=20.0, **_SUPERVISED,
        description="hang + zombie + fail-slow under supervision "
                    "(reduced duration; the CI gate)",
        actions=(GrayWorker(at=8.0, mode="hang"),
                 GrayWorker(at=20.0, mode="zombie"),
                 GrayWorker(at=32.0, mode="fail-slow"))),
    # the cheap-recovery acceptance scenario.  Faults are spaced so
    # anti-entropy finishes between them: two *overlapping* replica
    # losses in an N=3/R=2 placement may lose the single surviving copy
    # by design (that is the R=2 contract, not a bug).
    Campaign(
        name="brick-failures", duration_s=120.0, rate_rps=12.0,
        n_nodes=10, settle_s=25.0, **_SUPERVISED, **_BRICK_LOAD,
        config_overrides={"profile_backend": "dstore"},
        description="brick kill -9 x2 + fail-slow + zombie + hang "
                    "against the replicated profile store (N=3, R=2) "
                    "under supervision; zero committed-write loss and "
                    "0.99 read availability are invariants",
        actions=(KillBrick(at=10.0, slot=0),
                 GrayBrick(at=35.0, mode="fail-slow", slot=1),
                 KillBrick(at=55.0, slot=2),
                 GrayBrick(at=75.0, mode="zombie", slot=1),
                 GrayBrick(at=90.0, mode="hang", slot=0))),
    Campaign(
        name="brick-smoke", duration_s=70.0, rate_rps=10.0, n_nodes=8,
        settle_s=20.0, **_SUPERVISED, **_BRICK_LOAD,
        config_overrides={"profile_backend": "dstore"},
        description="brick kill + fail-slow + zombie under supervision "
                    "(reduced duration; the CI gate for committed-write "
                    "loss)",
        actions=(KillBrick(at=8.0, slot=0),
                 GrayBrick(at=25.0, mode="fail-slow", slot=1),
                 GrayBrick(at=40.0, mode="zombie", slot=2))),
    # the comparison baseline: each kill takes the whole profile path
    # down for restart + replay proportional to the commit count, so
    # MTTR grows with log length and read availability dips — the
    # numbers EXPERIMENTS.md tables against the dstore run
    Campaign(
        name="brick-failures-single", duration_s=120.0, rate_rps=12.0,
        n_nodes=10, initial_workers=3, settle_s=25.0,
        profile_write_interval_s=0.8,
        config_overrides={"profile_backend": "single"},
        description="the brick-failures kill schedule against the "
                    "single-node WAL store: outage = restart + replay "
                    "of the whole log (the cost cheap recovery "
                    "flattens)",
        actions=(KillBrick(at=10.0), KillBrick(at=55.0))),
    # the consensus acceptance scenario, under both manager backends:
    # the second cut lands on whoever took over.  The soft manager is
    # deposed on stale views; the Paxos group fails over by election
    # with zero wrong-decision dispatches.
    Campaign(
        name="partition-failures", duration_s=95.0,
        config_overrides={"manager_self_deposition": True},
        description="two SAN partitions isolating the current manager "
                    "+ an asymmetric worker->manager link; soft vs "
                    "consensus control planes",
        actions=(PartitionSAN(at=15.0, duration_s=20.0),
                 AsymmetricLink(at=45.0, duration_s=10.0),
                 PartitionSAN(at=60.0, duration_s=15.0))),
    Campaign(
        name="partition-smoke", duration_s=60.0, rate_rps=10.0,
        n_nodes=10, config_overrides={"manager_self_deposition": True},
        description="one SAN partition isolating the manager + a short "
                    "asymmetric link (fast; the CI partition gate)",
        actions=(PartitionSAN(at=10.0, duration_s=12.0),
                 AsymmetricLink(at=30.0, duration_s=8.0))),
    # the brownout acceptance scenario: the controller rides out the
    # burst by spending harvest — forced low-fidelity distillation,
    # stale serves, relaxed profile reads — while the retry budget and
    # origin breaker keep the overload from amplifying itself
    Campaign(
        name="flash-crowd", **_FLASH_CROWD,
        degradation="controller", yield_slo=0.99,
        config_overrides={**_FLASH_CONFIG,
                          "admission_exit_backlog_s": 1.0,
                          "retry_budget_ratio": 0.1,
                          "retry_budget_cap": 10.0,
                          "origin_breaker_failures": 3,
                          "degrade_util_target": 0.85},
        description="10x offered-load burst against the brownout "
                    "controller (ladder + retry budget + origin "
                    "breaker); yield >= 0.99 is an invariant"),
    # the comparison arm: binary admission control only, unlimited
    # retries, no breaker; EXPERIMENTS.md tables its yield against the
    # controller arm's
    Campaign(
        name="flash-crowd-baseline", **_FLASH_CROWD,
        config_overrides=dict(_FLASH_CONFIG),
        description="the same 10x burst with every brownout defense "
                    "off: binary shed only, unlimited retries, no "
                    "origin breaker"),
)}


def get_campaign(name: str,
                 overrides: Optional[Mapping[str, Any]] = None
                 ) -> Campaign:
    """A copy of a preset campaign, with ``overrides`` (:class:`SNSConfig`
    fields — how a run picks another deployment) laid over the
    preset's own ``config_overrides``."""
    if name not in CAMPAIGNS:
        raise KeyError(
            f"unknown campaign {name!r}; "
            f"available: {', '.join(sorted(CAMPAIGNS))}")
    preset = CAMPAIGNS[name]
    return dataclasses.replace(
        preset, recovery=copy.copy(preset.recovery),
        config_overrides={**preset.config_overrides, **(overrides or {})})
