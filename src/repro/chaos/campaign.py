"""Composable fault campaigns: scheduled sequences and mixes of faults.

A :class:`Campaign` is a declarative script — a workload plus a tuple of
fault *actions*, each pinned to a simulated time — that the
:class:`CampaignRunner` executes against a freshly built SNS fabric
while the :class:`~repro.chaos.invariants.InvariantChecker` watches.
Actions compose freely: clean kills and node crash-restart loops (the
paper's Section 4.5 faults) mix with the lossy-SAN fault model's
message loss, duplication, and delay jitter, straggler nodes, rolling
and random kill loops and rolling upgrades, so overlapping fault
sequences — the regime the paper never measured — are one tuple
literal away.

A fault kind is one frozen dataclass: :meth:`Fault.check` refuses a bad
field before any fabric is built, and ``fire`` injects it at ``at`` on
a target resolved then.  Rows fire through :class:`Faults`, which any
deployment with a ``cluster`` can carry: this is the one way the
repository breaks things, whoever asks.  The presets
are data (:data:`CAMPAIGNS`); ``python -m repro chaos <name>`` runs one.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import (Any, Callable, ClassVar, Dict, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.chaos.invariants import InvariantChecker
from repro.chaos.report import ChaosReport, build_report
from repro.core.config import SNSConfig
from repro.core.messages import BEACON_GROUP
from repro.domains import (above, at_least, between, check_args,
                           check_fields, checked, choice, count, positive)
from repro.experiments._harness import (SINGLE_REPLAY_PER_TXN_S,
                                        SINGLE_RESTART_S, build_bench_fabric)
from repro.recovery.gray import GrayState
from repro.recovery.ledger import RecoveryLedger
from repro.recovery.policy import RecoveryPolicy
from repro.sim.network import (ANY_SCOPE, CHANNEL_SCOPE, FaultWindow,
                               NetworkFaults)
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
#: a :class:`RollingUpgrade` keeps each node down this long (the new
#: software goes on), then gives its peers this long to re-converge
#: before the next node goes.
UPGRADE_HOLD_S = 4.0
UPGRADE_SETTLE_S = 8.0
#: the domain of each ``Campaign.arrival_schedule`` step's pair: a step
#: lasts, and a zero rate is a pause (``PlaybackEngine.ramp``).
ARRIVAL_STEP = {"duration_s": positive(), "rate_rps": at_least(0)}

#: gray mode (also its timeline and ledger kind) -> how it switches a
#: :class:`GrayState` on at ``now``, given the row's fail-slow factor.
WORKER_GRAY_MODES: Dict[str, Callable[[GrayState, float, float], None]] = {
    "fail-slow": lambda gray, now, factor: gray.fail_slow(factor, now),
    "hang": lambda gray, now, _: gray.hang(now),
    "zombie": lambda gray, now, _: gray.zombify(now),
    "leak": lambda gray, now, _: gray.leak(LEAK_RATE_PER_S, now),
    "corrupt-output": lambda gray, now, _: gray.corrupt_output(now),
}
#: the three modes a profile brick honours (repro.dstore.brick).
BRICK_GRAY_MODES = {mode: WORKER_GRAY_MODES[mode]
                    for mode in ("fail-slow", "hang", "zombie")}


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


class FaultRecord(NamedTuple):
    """One entry of a fault timeline."""

    time: float
    kind: str
    target: str


class Faults:
    """Where fault rows fire: any deployment with a ``cluster`` (an SNS
    fabric; a HotBot for :class:`CrashSearchNode`), its clock, the fault
    timeline and the recovery ledger.  The campaign runner holds one;
    an experiment or example that breaks things arms its rows through
    its own.  Targets resolve when a row fires, because populations
    churn.
    """

    def __init__(self, fabric: Any) -> None:
        self.fabric = fabric
        self.cluster = fabric.cluster
        self.env = fabric.cluster.env
        self.timeline: List[FaultRecord] = []
        self.ledger = RecoveryLedger(self.env)

    def arm(self, rows: Sequence["Fault"]) -> None:
        """Arm ``rows`` in order.  A row that fails its check, or whose
        ``at`` is already past, is refused with a ValueError naming it
        before any row is armed."""
        now = self.env.now
        for row in rows:
            try:
                row.check()
            except ValueError as error:
                raise ValueError(f"{row!r}: {error}") from None
            if row.at < now:
                raise ValueError(f"{row!r}: at={row.at!r} is before now "
                                 f"({now}s)")
        for row in rows:
            row.arm(self)

    def at(self, time: float, fire: Callable[[], None]) -> None:
        """Call ``fire`` at ``time`` (not before now)."""
        def later():
            yield self.env.timeout(time - self.env.now)
            fire()
        self.env.process(later())

    def network_faults(self) -> NetworkFaults:
        """The lossy-SAN fault model, installed on first use."""
        return self.cluster.network.install_faults(
            self.cluster.streams.stream("chaos:netfaults"))

    def alive_workers(self) -> List[Any]:
        return sorted(self.fabric.alive_workers(), key=lambda stub: stub.name)

    def alive_frontends(self) -> List[Any]:
        return sorted(self.fabric.alive_frontends(), key=lambda fe: fe.name)

    def resolve(self, spec: str) -> Optional[str]:
        """Turn a symbolic node spec into a node name at fire time."""
        kind, index = parse_node_spec(spec)
        if kind == "node":
            return spec
        if kind == "manager":
            # before the first election, consensus replica 0
            manager = self.fabric.manager
            if manager is None and self.fabric.managers:
                manager = self.fabric.managers[0]
            return manager.node.name if manager is not None else None
        peers = (self.alive_workers() if kind == "worker"
                 else self.alive_frontends())
        return peers[index % len(peers)].node.name if peers else None

    def log(self, kind: str, target: str) -> None:
        self.timeline.append(FaultRecord(self.env.now, kind, target))

    def kill(self, target: Any) -> None:
        """SIGKILL ``target`` (a component or a brick) and log it."""
        target.kill()
        self.log("kill", target.name)

    def inject_gray(self, fault: Any, target: Any) -> None:
        fault.modes[fault.mode](target.gray, self.env.now, fault.factor)
        self.log(fault.kind, target.name)
        self.ledger.inject(fault.kind, target.name)


@dataclass(frozen=True)
class Fault:
    """Base action: something bad happens at ``at`` seconds.

    A kind defines ``fire(faults)``, called at ``at``, or overrides
    :meth:`arm` to declare its whole window up front or to run a loop.
    A windowed kind declares a ``duration_s`` field *with a default*
    (else the ``None`` below becomes it), or derives one, and heals at
    ``at + duration_s``; an instant kind (kills, gray failures) has none
    and heals at ``at``.
    """

    at: float = checked(domain=at_least(0))
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
        """Refuse a field outside its declared domain before a fabric
        is built (:meth:`Campaign.validate` names the action); a kind
        with a rule that joins fields adds it here."""
        check_fields(self)

    def arm(self, faults: Faults) -> None:
        faults.at(self.at, lambda: self.fire(faults))


@dataclass(frozen=True)
class KillWorker(Fault):
    """Kill the first live worker (SIGKILL, Section 4.5's fault)."""

    kind = "kill"

    def fire(self, faults: Faults) -> None:
        workers = faults.alive_workers()
        if workers:
            faults.kill(workers[0])


@dataclass(frozen=True)
class KillManager(Fault):
    """Kill the manager: front-end watchdogs must restart a soft one;
    under the consensus backend it is the leader replica, and the group
    must elect another."""

    kind = "kill"

    def fire(self, faults: Faults) -> None:
        manager = faults.fabric.manager
        if manager is not None and manager.alive:
            faults.kill(manager)


@dataclass(frozen=True)
class KillFrontEnd(Fault):
    """Kill the first live front end; the manager must restart it.  The
    last one is spared: a front end is what restarts a dead manager."""

    kind = "kill"

    def fire(self, faults: Faults) -> None:
        frontends = faults.alive_frontends()
        if len(frontends) > 1:
            faults.kill(frontends[0])


@dataclass(frozen=True)
class CrashWorkerNode(Fault):
    """Crash the node hosting the first live worker (taking its workers
    with it) and restart the node ``duration_s`` later."""

    duration_s: float = checked(15.0, positive())
    kind = "node-crash"

    def fire(self, faults: Faults) -> None:
        workers = faults.alive_workers()
        if not workers:
            return
        node = workers[0].node
        node.crash()
        faults.log(self.kind, node.name)
        for stub in list(faults.fabric.workers.values()):
            if stub.alive and stub.node is node:
                faults.kill(stub)
        faults.at(faults.env.now + self.duration_s, node.restart)


@dataclass(frozen=True)
class CrashSearchNode(Fault):
    """A HotBot row (Table 1, Section 3.2): crash the node and search
    worker of ``partition``, unless already down; ``duration_s`` later
    it fast-restarts from its RAID disk (None: it stays down).  Queries
    miss the partition or reach it over a peer's cross-mount
    (``HotBotConfig.failure_mode``)."""

    partition: int = checked(0, count(0))
    duration_s: Optional[float] = checked(None, positive(optional=True))
    kind = "node-crash"

    def fire(self, faults: Faults) -> None:
        hotbot = faults.fabric
        if self.partition >= len(hotbot.workers):
            raise ValueError(f"{self!r}: out of range for "
                             f"n_workers={len(hotbot.workers)}")
        worker = hotbot.workers[self.partition]
        if not worker.alive:
            return
        worker.node.crash()
        faults.log(self.kind, worker.node.name)
        faults.kill(worker)
        if self.duration_s is not None:
            # the delay itself: (now + d) - now can differ from d
            faults.env.schedule_call(
                self.duration_s, lambda _: hotbot.restart(self.partition))


@dataclass(frozen=True)
class PartitionWorker(Fault):
    """Cut the first live worker off the SAN for ``duration_s``
    (Section 2.2.4)."""

    duration_s: float = checked(10.0, positive())
    kind = "partition"
    reregisters = True

    def fire(self, faults: Faults) -> None:
        workers = faults.alive_workers()
        if workers:
            # the cut lands behind whatever else is due this instant
            faults.at(faults.env.now,
                      lambda: self._cut(faults, workers[0]))

    def _cut(self, faults: Faults, victim: Any) -> None:
        victim.partition(self.duration_s)
        faults.log(self.kind, victim.name)


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
    duration_s: float = checked(15.0, positive())
    kind = "san-partition"
    reregisters = True

    def check(self) -> None:
        super().check()
        if not self.isolate:
            raise ValueError(f"isolate={self.isolate!r} must name a node")
        for spec in self.isolate:
            parse_node_spec(spec)

    def fire(self, faults: Faults) -> None:
        partitions = faults.cluster.install_partitions()
        groups = {name: "isolated" for name in
                  map(faults.resolve, self.isolate) if name is not None}
        if groups:
            partitions.split(groups, duration_s=self.duration_s)
            faults.log(self.kind, "+".join(sorted(groups)))


@dataclass(frozen=True)
class AsymmetricLink(Fault):
    """One-way SAN reachability failure: traffic from ``src`` to ``dst``
    is blackholed while the reverse direction still works — the gray
    network fault that breaks failure detectors built on 'I can hear
    you, so you can hear me'.  Specs resolve like
    :class:`PartitionSAN`'s."""

    src: str = "worker:0"
    dst: str = "manager"
    duration_s: float = checked(10.0, positive())
    kind = "san-oneway"
    reregisters = True

    def check(self) -> None:
        super().check()
        if self.src == self.dst:
            raise ValueError(f"dst={self.dst!r} must differ from src")
        parse_node_spec(self.src)
        parse_node_spec(self.dst)

    def fire(self, faults: Faults) -> None:
        partitions = faults.cluster.install_partitions()
        src = faults.resolve(self.src)
        dst = faults.resolve(self.dst)
        if src is None or dst is None or src == dst:
            return
        partitions.one_way(src, dst, duration_s=self.duration_s)
        faults.log(self.kind, f"{src}->{dst}")


@dataclass(frozen=True)
class LossyWindow(Fault):
    """Impose the lossy-SAN fault model on ``scope`` — a multicast group
    (default: the manager beacons), :data:`~repro.sim.network.CHANNEL_SCOPE`
    or :data:`~repro.sim.network.ANY_SCOPE` — for a while.  Lost beacons
    can silently expire workers; after the window soft state must put
    them back."""

    duration_s: float = checked(20.0, positive())
    scope: str = BEACON_GROUP
    loss: float = checked(0.2, FaultWindow.DOMAINS["loss"])
    duplicate: float = checked(0.0, FaultWindow.DOMAINS["duplicate"])
    jitter_s: float = checked(0.0, FaultWindow.DOMAINS["jitter_s"])
    reregisters = True

    def check(self) -> None:
        super().check()
        if not (self.loss > 0 or self.duplicate > 0 or self.jitter_s > 0):
            raise ValueError(f"loss={self.loss!r} with no duplicate or "
                             "jitter_s imposes nothing")

    def arm(self, faults: Faults) -> None:
        # a declared window: no process, nothing resolved at fire time
        faults.network_faults().impose(
            scope=self.scope, loss=self.loss, duplicate=self.duplicate,
            jitter_s=self.jitter_s, start=self.at,
            duration_s=self.duration_s)


@dataclass(frozen=True)
class Straggle(Fault):
    """Degrade the CPU of the last live worker's node to ``factor`` of
    nominal for ``duration_s`` without killing it — the fail-slow fault
    connection-based failure detection cannot see."""

    factor: float = checked(
        0.25, between(0, 1, lo_open=True, hi_open=True))
    duration_s: float = checked(20.0, positive())

    def fire(self, faults: Faults) -> None:
        workers = faults.alive_workers()
        if workers:
            node = workers[-1].node
            node.degrade(self.factor)
            faults.at(faults.env.now + self.duration_s, node.recover_speed)


@dataclass(frozen=True)
class RollingKills(Fault):
    """Kill one worker every :data:`ROLLING_KILL_PERIOD_S` seconds for
    ``duration_s`` — the crash-restart churn loop ("recovery paths must
    be exercised constantly to stay cheap")."""

    duration_s: float = checked(20.0, at_least(ROLLING_KILL_PERIOD_S))
    kind = "kill"

    def arm(self, faults: Faults) -> None:
        faults.env.process(self._loop(faults))

    def _loop(self, faults: Faults):
        env = faults.env
        yield env.timeout(self.at - env.now)
        index = 0
        while env.now + ROLLING_KILL_PERIOD_S <= self.heals_at:
            yield env.timeout(ROLLING_KILL_PERIOD_S)
            workers = faults.alive_workers()
            if workers:
                # round-robin, not random: reproducible without an RNG
                faults.kill(workers[index % len(workers)])
                index += 1


@dataclass(frozen=True)
class RandomKills(Fault):
    """Kill a random live worker, front end or manager every ~``mtbf_s``
    seconds (exponential gaps) for ``duration_s`` — the soak test's
    fault process.  Victims are drawn from whoever is alive at each
    kill, respawned components included; the last front end is spared,
    because a front end is what restarts a dead manager."""

    duration_s: float = checked(60.0, positive())
    mtbf_s: float = checked(15.0, positive())
    kind = "kill"

    def arm(self, faults: Faults) -> None:
        faults.env.process(self._loop(faults))

    def _loop(self, faults: Faults):
        env = faults.env
        rng = faults.cluster.streams.stream("chaos:faults")
        yield env.timeout(self.at - env.now)
        while True:
            gap = rng.exponential(self.mtbf_s)
            if env.now + gap > self.heals_at:
                return
            yield env.timeout(gap)
            victims = faults.alive_workers()
            frontends = faults.alive_frontends()
            if len(frontends) > 1:
                victims += frontends
            manager = faults.fabric.manager
            if manager is not None and manager.alive:
                victims.append(manager)
            if victims:
                faults.kill(rng.choice(victims))


@dataclass(frozen=True)
class RollingUpgrade(Fault):
    """Hot upgrade (Sections 1.2, 2.1): take the nodes named by
    ``nodes`` out one at a time.  The monitor is told the node's
    components are in maintenance, everything on the node is killed,
    the node stays down :data:`UPGRADE_HOLD_S` while the new software
    goes on, comes back, and its peers get :data:`UPGRADE_SETTLE_S` to
    re-converge before the next node goes.  Nothing restarts what was
    killed but the ordinary process peers: hot upgrade is free once
    crash recovery is.  ``nodes`` entries are node specs resolved when
    their turn comes, like :class:`PartitionSAN`'s ``isolate``."""

    nodes: Tuple[str, ...]
    kind = "upgrade"

    @property
    def duration_s(self) -> float:
        return len(self.nodes) * (UPGRADE_HOLD_S + UPGRADE_SETTLE_S)

    def check(self) -> None:
        if not self.nodes:
            raise ValueError(f"nodes={self.nodes!r} must name a node")
        for spec in self.nodes:
            parse_node_spec(spec)
        super().check()

    def arm(self, faults: Faults) -> None:
        faults.env.process(self._roll(faults))

    def _roll(self, faults: Faults):
        env, fabric = faults.env, faults.fabric
        yield env.timeout(self.at - env.now)
        for spec in self.nodes:
            node = faults.cluster.nodes.get(faults.resolve(spec))
            names: Optional[List[str]] = None
            if node is not None and node.up:
                victims = self._components_on(fabric, node)
                names = [component.name for component in victims]
                faults.log(self.kind, node.name)
                self._maintenance(fabric.monitor, names, True)
                for component in victims:
                    faults.kill(component)
                node.crash()
            yield env.timeout(UPGRADE_HOLD_S)
            if names is not None:
                node.restart()
                self._maintenance(fabric.monitor, names, False)
            yield env.timeout(UPGRADE_SETTLE_S)

    @staticmethod
    def _components_on(fabric: Any, node: Any) -> List[Any]:
        everyone = [*fabric.workers.values(), *fabric.frontends.values(),
                    fabric.manager, *fabric.managers, fabric.monitor]
        # the acting manager is also one of ``managers``
        return list(dict.fromkeys(
            component for component in everyone if component is not None
            and component.alive and component.node is node))

    @staticmethod
    def _maintenance(monitor: Any, names: List[str], on: bool) -> None:
        """Planned silences page nobody (Section 2.1's monitor)."""
        if monitor is not None and monitor.alive:
            for name in names:
                monitor.set_maintenance(name, on)


@dataclass(frozen=True)
class GrayWorker(Fault):
    """A gray failure (Section 4.5's operational incidents): the victim
    worker stays alive and keeps beaconing load reports while failing
    at its job in ``mode`` (:data:`WORKER_GRAY_MODES`).  Healing is the
    supervision layer's job, measured by the ledger, never assumed.
    ``victim`` indexes the gray-healthy live workers (sorted by name)
    at fire time, so one campaign can hit distinct workers.  Only
    fail-slow reads ``factor``, its service-time multiplier."""

    mode: str = checked(domain=choice(*WORKER_GRAY_MODES))
    victim: int = checked(0, count(0))
    factor: float = checked(WORKER_SLOW_FACTOR, above(1))
    modes = WORKER_GRAY_MODES

    @property
    def kind(self) -> str:
        return self.mode

    def fire(self, faults: Faults) -> None:
        candidates = [stub for stub in faults.alive_workers()
                      if not stub.gray.is_gray]
        if candidates:
            faults.inject_gray(self,
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

    slot: int = checked(0, count(0))
    kind = "brick-kill"

    def fire(self, faults: Faults) -> None:
        bricks = faults.fabric.profile_bricks
        if bricks is not None:
            brick = bricks.brick_at(self.slot % bricks.n_bricks)
            if brick is not None and brick.alive:
                faults.ledger.inject(self.kind, brick.name)
                faults.kill(brick)
        elif faults.fabric.profile_store is not None:
            self._kill_single_store(faults)

    def _kill_single_store(self, faults: Faults) -> None:
        store, service = faults.fabric.profile_store, faults.fabric.service
        now = faults.env.now
        outage = SINGLE_RESTART_S + SINGLE_REPLAY_PER_TXN_S * store.commits
        service.store_down_until = max(service.store_down_until,
                                       now + outage)
        faults.log("store-kill", "profile-store")
        case = faults.ledger.inject(self.kind, "profile-store")
        case.detected_at = now
        case.detector = "restart-watchdog"
        case.detail = f"WAL replay of {store.commits} txns"
        faults.at(now + outage,
                  lambda: faults.ledger.note_healed(
                      case, "restart+replay", "profile-store"))


@dataclass(frozen=True)
class GrayBrick(Fault):
    """A gray failure of the profile brick on ``slot`` in ``mode``
    (:data:`BRICK_GRAY_MODES`): a hung brick leaves quorum reads to its
    replica peers, a zombie acks writes and drops them (caught by the
    probe's write-read canary, never by liveness).  A no-op on the
    ``single`` backend, which has no gray surface."""

    mode: str = checked(domain=choice(*BRICK_GRAY_MODES))
    slot: int = checked(0, count(0))
    factor: ClassVar[float] = BRICK_SLOW_FACTOR
    modes = BRICK_GRAY_MODES

    @property
    def kind(self) -> str:
        return self.mode

    def fire(self, faults: Faults) -> None:
        bricks = faults.fabric.profile_bricks
        if bricks is None:
            return
        brick = bricks.brick_at(self.slot % bricks.n_bricks)
        if brick is not None and brick.alive and not brick.gray.is_gray:
            faults.inject_gray(self, brick)


@dataclass(frozen=True)
class Campaign:
    """A named, reproducible chaos scenario."""

    name: str
    description: str
    duration_s: float = checked(domain=positive())
    actions: Tuple[Fault, ...] = ()
    # workload + topology
    rate_rps: float = checked(15.0, positive())
    n_nodes: int = checked(12, count(1))
    initial_workers: int = checked(2, count(1))
    #: bound for the end-of-run bounded-reply latency check.  Setting it
    #: *below* the client timeout turns "slow but answered" into a
    #: violation — an SLO check, used by the tests that force a deadline
    #: violation deterministically.
    slo_latency_s: float = checked(CLIENT_TIMEOUT_S, positive())
    settle_s: float = checked(8.0, positive())
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
    profile_write_interval_s: float = checked(1.0, positive())
    #: minimum profile read availability; checked as an invariant when
    #: set (reads during brick faults must be masked by the quorum).
    profile_read_slo: Optional[float] = checked(
        None, between(0, 1, lo_open=True, optional=True))
    #: piecewise-constant offered load ``((duration_s, rate_rps), ...)``
    #: replacing the constant-rate process when set — how the
    #: flash-crowd campaigns script their 10x burst.  Overload *is* the
    #: fault here, so these campaigns need no ``actions``.
    arrival_schedule: Optional[Tuple[Tuple[float, float], ...]] = None
    #: distinct URLs/clients the engine cycles through; large pools
    #: defeat the result cache and drive cold misses to the origin.
    pool_size: int = checked(40, count(1))
    #: input size of every pool record; distillation cost is linear in
    #: it, so this knob sets worker capacity relative to offered load.
    record_bytes: int = checked(10240, count(1))
    #: fraction of pool records marked ``priority="batch"`` — the class
    #: priority-admission (ladder level 4) sheds first.
    batch_fraction: float = checked(0.0, between(0, 1, hi_open=True))
    #: "controller" starts the closed-loop DegradationController after
    #: boot; None runs whatever the config armed statically.
    degradation: Optional[str] = checked(None, choice(None, "controller"))
    #: minimum end-of-run yield; checked as an invariant when set (the
    #: brownout controller's harvest-for-yield claim).
    yield_slo: Optional[float] = checked(
        None, between(0, 1, lo_open=True, optional=True))

    @property
    def final_heal_s(self) -> float:
        """When the last scheduled fault stops being injected."""
        return max((action.heals_at for action in self.actions),
                   default=0.0)

    def validate(self) -> "Campaign":
        """Refuse a field outside its declared domain, a bad action
        (named), a fault still healing at the end, or a bad arrival
        step, before any fabric is built."""
        check_fields(self)
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
        for step in self.arrival_schedule or ():
            duration_s, rate_rps = step
            try:
                check_args(ARRIVAL_STEP, duration_s=duration_s,
                           rate_rps=rate_rps)
            except ValueError as error:
                raise ValueError(f"arrival step {step!r}: {error}") from None
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
        self.faults = Faults(self.fabric)
        # every campaign runs on the lossy-SAN fault model, windows or not
        self.faults.network_faults()
        self.checker = InvariantChecker(self.fabric)
        self.engine = PlaybackEngine(
            self.env, self.checker.checked_submit(self.fabric.submit),
            rng=RandomStreams(seed).stream("chaos:playback"),
            timeout_s=CLIENT_TIMEOUT_S)
        self.supervisor: Optional[Any] = None
        self.controller: Optional[Any] = None
        #: deterministic profile-writer counters (attempted includes
        #: writes refused while the single store is down).
        self.profile_writes = {"attempted": 0, "committed": 0, "failed": 0}

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
                campaign.recovery, ledger=self.faults.ledger)
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

        # one row at a time, each followed by its re-registration watch:
        # the order processes are created in is part of the trajectory
        for action in campaign.actions:
            self.faults.arm((action,))
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
        if self.fabric.consensus is not None:
            self.checker.final_consensus_checks(self.fabric.consensus)
            consensus = self.fabric.consensus.stats()
        return build_report(
            campaign=campaign, seed=self.seed, faults=self.faults,
            engine=self.engine, checker=self.checker,
            supervisor=self.supervisor, profile=profile, consensus=consensus,
            degradation=(self.controller.summary()
                         if self.controller is not None else None))


def run_campaign(campaign: Campaign, seed: int) -> ChaosReport:
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
