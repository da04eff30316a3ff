"""The self-healing supervisor: notices gray failures and restarts them.

The monitor (Section 3.1.7) pages a human; this component closes the
loop below the manager/front-end tier, where process-peer recovery never
reached.  Three detectors feed one restart executor:

* **end-to-end health probes** — a synchronous request/reply exercising
  the worker's dispatch surface (accept, service-time model, output
  validation), not just beacon liveness.  A hung or zombie worker never
  answers; a corrupt-output worker answers with bytes that fail
  validation.  Probes deliberately bypass the shared SAN links and the
  worker queue: both are stateful (link reservations meter bytes, queue
  depth feeds load reports feeds the lottery), so a probe riding the
  real path would perturb request scheduling and break the
  fault-free-determinism contract;
* **RPC-timeout reports** — manager stubs at the front ends report each
  dispatch timeout ("if the distiller crashes [or wedges], the RPC call
  times out"); enough timeouts against one worker inside the suspicion
  window trigger a restart even between probe sweeps;
* **peer-relative load outliers** — a worker whose queue average in the
  manager's load table sustains far above its same-type peers' median
  is failing slow (or leaking); connection-based detection is blind to
  it because the worker keeps reporting.

The executor applies restart-as-first-resort tempered by fixed guard
rails (constants in :mod:`repro.recovery.policy`): a per-window restart budget, exponential backoff between
consecutive restarts on one node, and flap-detection quarantine that
removes a machine from future placement when restarts on it keep not
sticking.  Every case is accounted in the
:class:`~repro.recovery.ledger.RecoveryLedger` (MTTD/MTTR/availability)
and — when span tracing is on — attached to the trace store as an
auxiliary span tree.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.core.component import Component
from repro.core.config import SNSConfig
from repro.core.monitor import Alert
from repro.recovery.ledger import FaultCase, RecoveryLedger
from repro.recovery.policy import (
    FLAP_THRESHOLD, FLAP_WINDOW_S, HEAL_WAIT_PERIODS, LOAD_OUTLIER_MIN_PEERS,
    OUTLIER_INTERVAL_S, OUTLIER_SUSTAIN_S, PROBE_RTT_S, PROBE_SLOW_RATIO,
    PROBE_TIMEOUT_S, RESTART_BACKOFF_BASE_S, RESTART_BACKOFF_CAP_S,
    RESTART_BACKOFF_FACTOR, RESTART_BUDGET, RESTART_BUDGET_WINDOW_S,
    SUSPICION_WINDOW_S, RecoveryPolicy)
from repro.sim.cluster import Cluster
from repro.sim.node import Node


class Supervisor(Component):
    """Probes workers end to end, confirms suspicions, heals by restart."""

    kind = "supervisor"

    def __init__(self, cluster: Cluster, node: Node, name: str,
                 config: SNSConfig, fabric: Any,
                 policy: Optional[RecoveryPolicy] = None,
                 ledger: Optional[RecoveryLedger] = None) -> None:
        super().__init__(cluster, node, name)
        self.config = config
        self.fabric = fabric
        self.policy = (policy if policy is not None
                       else RecoveryPolicy()).validate()
        self.ledger = (ledger if ledger is not None
                       else RecoveryLedger(cluster.env))
        # detector state
        self._probe_failures: Dict[str, int] = {}
        self._rpc_timeouts: Dict[str, List[float]] = {}
        self._outlier_since: Dict[str, float] = {}
        # executor state
        self._restarting: Set[str] = set()
        self._restart_times: List[float] = []
        self._node_restarts: Dict[str, List[float]] = {}
        self._case_seq = 0
        # counters + operator surface
        self.probes_sent = 0
        self.probe_failures = 0
        self.suspicions = 0
        self.restarts = 0
        self.rejuvenations = 0
        self.backoff_waits = 0
        self.budget_denials = 0
        self.quarantined_nodes: List[str] = []
        self.alerts: List[Alert] = []

    # -- processes ----------------------------------------------------------

    def _start_processes(self) -> None:
        self.every(self.policy.probe_interval_s, self._probe_tick)
        self.every(OUTLIER_INTERVAL_S, self._outlier_tick)
        if self.policy.rejuvenation_interval_s is not None:
            self.every(self.policy.rejuvenation_interval_s,
                       self._rejuvenation_tick)

    # -- detector 1: end-to-end health probes -------------------------------

    def _probe_tick(self) -> None:
        for stub in sorted(self.fabric.workers.values(),
                           key=lambda stub: stub.name):
            if not stub.alive or stub.name in self._restarting:
                continue
            self.probes_sent += 1
            self.spawn(self._probe_one(stub))
        for brick in sorted(self.fabric.brick_population().values(),
                            key=lambda brick: brick.name):
            if brick.name in self._restarting:
                continue
            if not brick.alive:
                # no manager tracks bricks, so a kill -9 has no
                # process-peer: the supervisor is the only thing
                # that notices the corpse
                self._begin_restart(brick, "brick-dead",
                                    "brick process gone")
                continue
            self.probes_sent += 1
            self.spawn(self._probe_one(brick))

    def _san_partitioned(self, stub) -> bool:
        """True when the SAN partition model says this component's node
        is cut off from the supervisor's.  Restarting it would be a
        wrong decision — the process is healthy, only the network
        between us is gone — and the re-fork would double the worker
        the moment the partition heals."""
        partitions = self.cluster.network.partitions
        if partitions is None:
            return False
        return not partitions.node_reachable(self.node.name,
                                             stub.node.name)

    def _probe_one(self, stub):
        reply = stub.probe_reply()
        if reply is None:
            # no answer will ever come: wait out the timeout, then —
            # unless the stub visibly died (the manager's job, not
            # ours) — count a probe failure
            yield self.env.timeout(PROBE_TIMEOUT_S)
            if stub.alive and not stub.is_partitioned and stub.node.up \
                    and not self._san_partitioned(stub):
                self._probe_failed(stub, "probe never answered")
            else:
                self._probe_failures.pop(stub.name, None)
            return
        service_s, nominal_s, output_ok = reply
        delay = PROBE_RTT_S + service_s
        if delay > PROBE_TIMEOUT_S:
            yield self.env.timeout(PROBE_TIMEOUT_S)
            if stub.alive:
                self._probe_failed(
                    stub, f"probe service {service_s:.2f}s past "
                          f"{PROBE_TIMEOUT_S:.1f}s timeout")
            return
        yield self.env.timeout(delay)
        if not stub.alive:
            return
        if not output_ok:
            # corruption is a definite end-to-end signal: one strike
            self._probe_failures.pop(stub.name, None)
            self._begin_restart(stub, "probe-validate",
                                "probe output failed validation")
            return
        if nominal_s > 0 and service_s > PROBE_SLOW_RATIO * nominal_s:
            # answered, but far slower than this worker's own nominal:
            # fail-slow or leak inflation below the RPC-timeout radar
            self._probe_failed(
                stub, f"probe took {service_s * 1e3:.1f}ms vs "
                      f"{nominal_s * 1e3:.1f}ms nominal")
            return
        self._probe_failures.pop(stub.name, None)

    def _probe_failed(self, stub, detail: str) -> None:
        self.probe_failures += 1
        count = self._probe_failures.get(stub.name, 0) + 1
        self._probe_failures[stub.name] = count
        if count >= self.policy.probe_confirmations:
            self._probe_failures.pop(stub.name, None)
            self._begin_restart(stub, "probe", detail)

    # -- detector 2: RPC-timeout reports from manager stubs ------------------

    def note_rpc_timeout(self, worker_name: str) -> None:
        """A front end's dispatch against ``worker_name`` timed out."""
        if not self.alive:
            return
        stub = self.fabric.workers.get(worker_name)
        if stub is None or not stub.alive or stub.is_partitioned \
                or worker_name in self._restarting \
                or self._san_partitioned(stub):
            return
        now = self.env.now
        events = [t for t in self._rpc_timeouts.get(worker_name, [])
                  if now - t <= SUSPICION_WINDOW_S]
        events.append(now)
        self._rpc_timeouts[worker_name] = events
        if len(events) >= self.policy.rpc_timeout_confirmations:
            self._rpc_timeouts.pop(worker_name, None)
            self._begin_restart(stub, "rpc-timeout",
                                f"{len(events)} dispatch timeouts in "
                                f"{SUSPICION_WINDOW_S:.0f}s")

    # -- detector 3: peer-relative load outliers -----------------------------

    def _outlier_tick(self) -> None:
        policy = self.policy
        manager = self.fabric.manager
        if manager is None or not manager.alive:
            self._outlier_since.clear()
            return
        by_type: Dict[str, list] = {}
        for info in manager.workers.values():
            by_type.setdefault(info.worker_type, []).append(info)
        now = self.env.now
        for infos in by_type.values():
            if len(infos) < LOAD_OUTLIER_MIN_PEERS:
                for info in infos:
                    self._outlier_since.pop(info.name, None)
                continue
            loads = sorted(info.queue_avg for info in infos)
            median = loads[len(loads) // 2]
            threshold = max(policy.outlier_floor,
                            policy.outlier_ratio * median)
            for info in infos:
                if info.queue_avg <= threshold:
                    self._outlier_since.pop(info.name, None)
                    continue
                since = self._outlier_since.setdefault(info.name, now)
                if now - since < OUTLIER_SUSTAIN_S:
                    continue
                self._outlier_since.pop(info.name, None)
                stub = self.fabric.workers.get(info.name)
                if stub is not None and stub.alive:
                    self._begin_restart(
                        stub, "load-outlier",
                        f"queue {info.queue_avg:.1f} vs peer "
                        f"median {median:.1f} for "
                        f"{OUTLIER_SUSTAIN_S:.0f}s")

    # -- the restart executor -------------------------------------------------

    def _begin_restart(self, stub, detector: str, detail: str) -> None:
        name = stub.name
        # a dead *worker* is the manager's job; a dead brick is ours
        if name in self._restarting \
                or (not stub.alive and stub.kind != "brick"):
            return
        self.suspicions += 1
        now = self.env.now
        self._restart_times = [
            t for t in self._restart_times
            if now - t <= RESTART_BUDGET_WINDOW_S]
        if len(self._restart_times) >= RESTART_BUDGET:
            # out of budget: stop healing, page a human (automated
            # recovery that keeps thrashing is worse than none)
            self.budget_denials += 1
            self._alert("page", name,
                        f"restart budget exhausted; {detector}: {detail}")
            return
        self._restarting.add(name)
        case = self.ledger.note_detected(name, detector, detail)
        span = None
        tracer = self.env.tracer
        if tracer is not None:
            self._case_seq += 1
            span = tracer.open_aux_trace(
                f"recovery-{self._case_seq:03d}", "recovery",
                component=self.name,
                annotations={"target": name, "detector": detector,
                             "detail": detail})
            if span is not None and case is not None:
                case.trace_id = span.trace_id
                span.record("undetected", "queueing", case.injected_at,
                            annotations={"kind": case.kind})
        self.spawn(self._restart(stub, case, span))

    def _restart(self, stub, case: Optional[FaultCase], span,
                 proactive: bool = False):
        """Restart-as-first-resort, one path for workers and bricks:
        backoff, budget and flap history are shared.  Only three things
        depend on ``stub.kind``.  *Is the target still the one I
        meant:* a worker must still be alive (a dead one is the
        manager's to heal); a brick, dead or not, must still own its
        slot.  *Where the replacement goes:* a worker lands on any
        placeable node, and its old node is quarantined when restarts
        there keep not sticking; a brick returns to the *same slot*
        (placement is identity — a brick has exactly one home, so its
        node is never quarantined).  *What healed means:* see
        :meth:`_await_heal`.
        """
        name, node = stub.name, stub.node
        is_brick = stub.kind == "brick"
        now = self.env.now
        history = [t for t in self._node_restarts.get(node.name, [])
                   if now - t <= FLAP_WINDOW_S]
        delay = 0.0
        if history and not proactive:
            # exponential backoff between consecutive restarts here
            delay = min(RESTART_BACKOFF_CAP_S,
                        RESTART_BACKOFF_BASE_S
                        * RESTART_BACKOFF_FACTOR ** (len(history) - 1))
        try:
            if delay > 0:
                self.backoff_waits += 1
                yield self.env.timeout(delay)
            still_mine = (
                self.fabric.brick_population().get(name) is stub
                if is_brick else stub.alive)
            if not still_mine:
                # healed some other way meanwhile: the worker died (the
                # manager's job), or another incarnation took the slot
                if span is not None:
                    span.annotate(heal="superseded")
                return
            now = self.env.now
            if not proactive:
                self._restart_times.append(now)
                history.append(now)
                self._node_restarts[node.name] = history
            mark = now
            if stub.alive:
                stub.kill()
            self.restarts += 1
            if is_brick:
                bricks = self.fabric.profile_bricks
                replacement = yield from bricks.respawn(stub.slot)
                # the live record: sync_s arrives when repair finishes
                self.ledger.note_rejoin(bricks.rejoins[-1])
            else:
                if not proactive \
                        and len(history) >= FLAP_THRESHOLD \
                        and not node.quarantined:
                    # the fault keeps coming back on this machine: stop
                    # placing workers here until an operator reboots it
                    node.quarantine()
                    self.quarantined_nodes.append(node.name)
                    self._alert("page", node.name,
                                f"{len(history)} restarts in "
                                f"{FLAP_WINDOW_S:.0f}s: quarantined")
                place = node if (node.up and not node.quarantined) \
                    else None
                try:
                    replacement = self.fabric.spawn_worker(
                        stub.worker_type, place)
                except Exception as error:
                    self._alert("page", name,
                                f"respawn failed: "
                                f"{type(error).__name__}: {error}")
                    if span is not None:
                        span.annotate(heal="respawn-failed")
                    return
            if span is not None:
                span.record("restart", "service", mark,
                            annotations={"replacement": replacement.name})
            if case is not None:
                yield from self._await_heal(case, replacement, span)
        finally:
            self._restarting.discard(name)
            if span is not None:
                # every way out — healed, timed out, superseded, failed
                # or this supervisor killed — closes the case's span,
                # or the trace export would drop it
                span.finish()

    def _await_heal(self, case: FaultCase, replacement, span):
        """The heal is done when the replacement is back in rotation,
        not merely forked: a worker is in the manager's soft state
        again; a brick — whose rejoin is instant by design — has
        finished the anti-entropy sweep and is fully authoritative for
        every partition it hosts, so its MTTR deliberately includes the
        background sync (time-to-full-redundancy)."""
        is_brick = replacement.kind == "brick"
        action, step, never = (
            ("brick-restart", "resync", "finished anti-entropy")
            if is_brick else ("restart", "reregister", "registered"))
        mark = self.env.now
        for _ in range(HEAL_WAIT_PERIODS):
            yield self.env.timeout(self.config.beacon_interval_s)
            if not replacement.alive:
                break
            if is_brick:
                healed = replacement.fully_authoritative
            else:
                manager = self.fabric.manager
                healed = manager is not None and manager.alive \
                    and replacement.name in manager.workers
            if healed:
                self.ledger.note_healed(case, action, replacement.name)
                if span is not None:
                    span.record(step, "queueing", mark,
                                annotations={"replacement":
                                             replacement.name})
                return
        self._alert("page", case.target,
                    f"replacement {replacement.name} never {never}")
        if span is not None:
            span.annotate(heal="timeout")

    # -- rejuvenation ---------------------------------------------------------

    def _rejuvenation_tick(self) -> None:
        """Section 4.5's leak cure: proactively restart the oldest idle
        worker on a timer, before degradation is even detectable."""
        interval = self.policy.rejuvenation_interval_s
        candidates = sorted(
            (stub for stub in self.fabric.workers.values()
             if stub.alive and stub.name not in self._restarting
             and stub.load == 0
             and self.env.now - stub.started_at >= interval),
            key=lambda stub: (stub.started_at, stub.name))
        if not candidates:
            return
        stub = candidates[0]
        self.rejuvenations += 1
        self.ledger.note_rejuvenation(stub.name)
        self._restarting.add(stub.name)
        self.spawn(self._restart(stub, None, None, proactive=True))

    # -- operator surface -----------------------------------------------------

    def _alert(self, severity: str, component: str, message: str) -> None:
        self.alerts.append(
            Alert(self.env.now, severity, component, message))

    def pages(self) -> List[Alert]:
        return [alert for alert in self.alerts
                if alert.severity == "page"]
