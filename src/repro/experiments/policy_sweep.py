"""Routing-policy sweep: tail latency and harvest per policy, at scale.

ROADMAP item 1's measurement: replay the *same* million-request
streaming JPEG trace once per routing policy (:mod:`repro.balance`)
against a fixed worker pool, inject one gray-slow worker a quarter of
the way in, and compare p99/p99.9 tails, harvest, and how each policy
copes with the sick worker.  The paper's lottery is the baseline; the
latency-aware policies (p2c, ewma) and the outlier-ejection wrapper are
the modern candidates that should beat it on the tail.

Every arm is an independent simulation on the identical trace (same
seed), so the sweep fans out across processes via ``repro.fanout`` with
byte-identical output at any ``--jobs``.  The supervisor runs in every
arm, deliberately detuned to a slow backstop: the point of passive
outlier ejection is that the *balancer* routes around the gray worker
seconds after the slowdown, long before the supervision layer decides
to restart anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import LatencyStats
from repro.chaos.campaign import Faults, GrayWorker
from repro.core.config import SNSConfig
from repro.recovery.policy import RecoveryPolicy
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine
from repro.workload.tracegen import iter_fixed_jpeg_trace

from repro.experiments._harness import build_bench_fabric, run_grid

#: the default sweep arms: every base policy plus the headline
#: latency-aware + ejection combination.
DEFAULT_POLICIES = (
    "lottery",
    "round-robin",
    "least-outstanding",
    "p2c",
    "ewma",
    "weighted",
    "hash-bounded",
    "ewma+eject",
)
#: service-time multiplier of the one fail-slow worker every arm gets.
SLOW_FACTOR = 8.0
#: supervision detuned to a slow backstop, identically in every arm:
#: probes sweep rarely and need many confirmations, and the
#: stub-report/load-outlier detectors are effectively off, so the
#: routing policy gets first crack at the gray worker (read-only).
BACKSTOP_POLICY = RecoveryPolicy(
    probe_interval_s=30.0, probe_confirmations=4,
    rpc_timeout_confirmations=1000, outlier_ratio=1e9, outlier_floor=1e9)


@dataclass
class PolicyArmStats:
    """One policy's run over the shared trace."""

    policy: str
    submitted: int
    completed: int
    ok: int
    fallbacks: int
    client_timeouts: int
    harvest: float
    mean_s: float
    p50_s: float
    p99_s: float
    p999_s: float
    max_s: float
    dispatch_timeouts: int
    deadline_expiries: int
    retries: int
    #: requests the gray-slow victim served after the injection — the
    #: direct measure of how much traffic the policy kept sending into
    #: the slow worker.
    victim_served_after: int
    ejections: int
    first_ejection_at: Optional[float]
    #: ejections fired before the fault was even injected — background
    #: false positives (queue-noise latency outliers over a long run).
    pre_inject_ejections: int
    #: earliest ejection of the gray-slow victim *at or after* the
    #: injection, across front ends — the "routed around before the
    #: Supervisor moved" moment.  Pre-injection ejections of the same
    #: worker are background noise and count above instead.
    victim_ejected_at: Optional[float]
    supervisor_restarts: int
    fault_detected_at: Optional[float]
    inject_at: float
    duration_s: float


@dataclass
class PolicySweepResult:
    arms: List[PolicyArmStats]
    n_requests: int
    rate_rps: float
    n_workers: int
    seed: int

    def arm(self, policy: str) -> Optional[PolicyArmStats]:
        for arm in self.arms:
            if arm.policy == policy:
                return arm
        return None

    def render(self) -> str:
        header = (
            f"Routing-policy sweep: {self.n_requests} requests @ "
            f"{self.rate_rps:.0f} rps, {self.n_workers} workers, "
            f"one worker fail-slow x{SLOW_FACTOR:.0f} at 25% "
            f"(seed {self.seed})")
        lines = [header, ""]
        columns = (f"  {'policy':<18} {'harvest':>7} {'p50':>7} "
                   f"{'p99':>8} {'p99.9':>8} {'max':>8} {'tmo':>5} "
                   f"{'victim':>6} {'eject':>5} {'eject@':>8} "
                   f"{'restart':>7}")
        lines.append(columns)
        for arm in self.arms:
            eject_at = (f"{arm.victim_ejected_at:8.1f}"
                        if arm.victim_ejected_at is not None
                        else f"{'-':>8}")
            lines.append(
                f"  {arm.policy:<18} {arm.harvest:7.4f} "
                f"{arm.p50_s:7.3f} {arm.p99_s:8.3f} "
                f"{arm.p999_s:8.3f} {arm.max_s:8.3f} "
                f"{arm.dispatch_timeouts:5d} "
                f"{arm.victim_served_after:6d} {arm.ejections:5d} "
                f"{eject_at} {arm.supervisor_restarts:7d}")
        lottery = self.arm("lottery")
        if lottery is not None:
            beats = [arm.policy for arm in self.arms
                     if arm.policy != "lottery"
                     and arm.p99_s < lottery.p99_s]
            lines.append("")
            lines.append(
                f"  beats lottery on p99: "
                f"{', '.join(beats) if beats else 'none'}")
        for arm in self.arms:
            if arm.victim_ejected_at is not None:
                detected = (f"{arm.fault_detected_at:.1f}s"
                            if arm.fault_detected_at is not None
                            else "never")
                noise = (f", {arm.pre_inject_ejections} background "
                         f"ejections before injection"
                         if arm.pre_inject_ejections else "")
                lines.append(
                    f"  {arm.policy}: victim injected at "
                    f"{arm.inject_at:.1f}s, ejected "
                    f"{arm.victim_ejected_at - arm.inject_at:.1f}s "
                    f"later vs supervisor detection at {detected} "
                    f"({arm.supervisor_restarts} restarts{noise})")
        return "\n".join(lines)


def run_policy_arm(policy: str, n_requests: int, rate_rps: float,
                   n_workers: int, seed: int, image_bytes: int = 10240,
                   inject_fraction: float = 0.25) -> PolicyArmStats:
    """One arm: replay the seed-derived trace under ``policy``.

    Module-level and self-contained (the trace is regenerated from the
    seed inside the arm) so :func:`run_grid` can ship it to a worker
    process.
    """
    config = SNSConfig(
        routing_policy=policy,
        spawn_threshold=1e9,  # fixed pool: policies see stable peers
        dispatch_timeout_s=2.0,
        dispatch_attempts=3,
        dispatch_deadline_s=6.0,
        shed_expired_requests=True,
        frontend_threads=2000,
        frontend_connection_overhead_s=0.001,
    )
    fabric = build_bench_fabric(n_nodes=n_workers + 4, seed=seed,
                                config=config)
    faults = Faults(fabric)
    fabric.boot(n_frontends=2,
                initial_workers={"jpeg-distiller": n_workers})
    fabric.start_supervisor(policy=BACKSTOP_POLICY, ledger=faults.ledger)
    env = fabric.cluster.env
    fabric.cluster.run(until=2.0)

    expected_duration = n_requests / rate_rps
    inject_at = env.now + inject_fraction * expected_duration
    faults.arm((GrayWorker(at=inject_at, mode="fail-slow",
                           factor=SLOW_FACTOR),))
    served_at_inject: Dict[str, int] = {}
    faults.at(inject_at, lambda: served_at_inject.update(
        (stub.name, stub.served) for stub in faults.alive_workers()))

    latency = LatencyStats()
    status_counts: Dict[str, int] = {}

    def on_success(response, latency_s: float) -> None:
        latency.add(latency_s)
        status = getattr(response, "status", "ok")
        status_counts[status] = status_counts.get(status, 0) + 1

    engine = PlaybackEngine(
        env, fabric.submit,
        rng=RandomStreams(seed).stream("policy-playback"),
        timeout_s=30.0, record_outcomes=False, on_success=on_success)
    records = iter_fixed_jpeg_trace(
        rate_rps, n_requests, image_size_bytes=image_bytes, seed=seed)
    started_at = env.now
    playback = env.process(engine.play(records, time_offset=env.now))
    fabric.cluster.run(until=playback)
    fabric.cluster.run(until=env.now + 35.0)  # drain in-flight work

    victim_name = faults.timeline[0].target
    victim_stub = fabric.workers.get(victim_name)
    victim_served_after = 0
    if victim_stub is not None:
        victim_served_after = (victim_stub.served
                               - served_at_inject.get(victim_name, 0))
    ejections = 0
    pre_inject_ejections = 0
    first_ejection_at: Optional[float] = None
    victim_ejected_at: Optional[float] = None
    for frontend in fabric.frontends.values():
        stats = frontend.stub.policy.stats()
        ejections += stats.get("ejections", 0)
        at = stats.get("first_ejection_at")
        if at is not None and (first_ejection_at is None
                               or at < first_ejection_at):
            first_ejection_at = at
        for times in stats.get("ejection_times", {}).values():
            pre_inject_ejections += sum(1 for t in times
                                        if t < inject_at)
        victim_times = stats.get("ejection_times", {}).get(
            victim_name, ())
        for t in victim_times:
            if t >= inject_at and (victim_ejected_at is None
                                   or t < victim_ejected_at):
                victim_ejected_at = t
    fault_detected_at: Optional[float] = None
    for case in faults.ledger.cases:
        if case.detected_at is not None:
            fault_detected_at = case.detected_at
            break
    stubs = [fe.stub for fe in fabric.frontends.values()]
    stats = engine.stats
    ok = status_counts.get("ok", 0)
    return PolicyArmStats(
        policy=policy,
        submitted=stats.submitted,
        completed=stats.completed,
        ok=ok,
        fallbacks=status_counts.get("fallback", 0),
        client_timeouts=stats.failed,
        harvest=ok / stats.submitted if stats.submitted else 1.0,
        mean_s=latency.mean if latency.count else 0.0,
        p50_s=latency.p50 if latency.count else 0.0,
        p99_s=latency.percentile(0.99) if latency.count else 0.0,
        p999_s=latency.percentile(0.999) if latency.count else 0.0,
        max_s=latency.maximum if latency.count else 0.0,
        dispatch_timeouts=sum(stub.timeouts for stub in stubs),
        deadline_expiries=sum(stub.deadline_expiries for stub in stubs),
        retries=sum(stub.retries for stub in stubs),
        victim_served_after=victim_served_after,
        ejections=ejections,
        first_ejection_at=first_ejection_at,
        pre_inject_ejections=pre_inject_ejections,
        victim_ejected_at=victim_ejected_at,
        supervisor_restarts=(fabric.supervisor.restarts
                             if fabric.supervisor is not None else 0),
        fault_detected_at=fault_detected_at,
        inject_at=inject_at,
        duration_s=env.now - started_at,
    )


def run_policy_sweep(policies: Optional[Sequence[str]] = None,
                     n_requests: int = 1_000_000,
                     rate_rps: float = 160.0,
                     n_workers: int = 8,
                     seed: int = 1997,
                     jobs: int = 1) -> PolicySweepResult:
    """Replay the shared trace once per policy; ``jobs > 1`` fans the
    arms across worker processes, byte-identical to serial."""
    policies = list(policies or DEFAULT_POLICIES)
    arms = [
        dict(policy=policy, n_requests=n_requests, rate_rps=rate_rps,
             n_workers=n_workers, seed=seed)
        for policy in policies
    ]
    if jobs > 1:
        stats = run_grid(run_policy_arm, arms, jobs=jobs,
                         label="policy").values()
    else:
        stats = [run_policy_arm(**arm) for arm in arms]
    return PolicySweepResult(
        arms=list(stats), n_requests=n_requests, rate_rps=rate_rps,
        n_workers=n_workers, seed=seed)
