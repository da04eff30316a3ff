"""Fault-tolerance timeline (Section 3.1.3).

A scripted run exercising every process-peer mechanism in sequence and
recording what the user would have seen: a distiller dies (routed
around, respawned), the manager dies (service continues on stale hints,
a front end restarts it, workers re-register), a front end dies (the
manager restarts it, client-side balancing masks the gap).  The result
is a timeline plus availability accounting across the whole ordeal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.metrics import summarize_outcomes
from repro.chaos.campaign import Faults, KillFrontEnd, KillManager, KillWorker
from repro.core.config import SNSConfig
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from repro.experiments._harness import build_bench_fabric, jpeg_pool


@dataclass
class FaultTimelineResult:
    timeline: List[Tuple[float, str]]
    success_rate: float
    fallback_count: int
    completed: int
    failed: int
    manager_restarts: int
    frontend_restarts: int
    worker_failures_detected: int

    def render(self) -> str:
        lines = ["Fault-tolerance timeline (Section 3.1.3)"]
        for time, label in self.timeline:
            lines.append(f"  t={time:6.1f}s  {label}")
        lines.append(
            f"\navailability: {self.success_rate:.1%} of requests "
            f"answered ({self.completed} ok, {self.failed} lost, "
            f"{self.fallback_count} approximate)")
        return "\n".join(lines)


def run_fault_timeline(rate_rps: float = 20.0, seed: int = 1997
                       ) -> FaultTimelineResult:
    config = SNSConfig(dispatch_timeout_s=4.0, spawn_damping_s=5.0,
                       frontend_connection_overhead_s=0.001)
    fabric = build_bench_fabric(n_nodes=14, seed=seed, config=config)
    fabric.boot(n_frontends=2, initial_workers={"jpeg-distiller": 2})
    env = fabric.cluster.env
    timeline: List[Tuple[float, str]] = []

    def note(label: str) -> None:
        timeline.append((env.now, label))

    engine = PlaybackEngine(
        env, fabric.submit,
        rng=RandomStreams(seed).stream("fault-playback"),
        timeout_s=20.0)
    pool = jpeg_pool(40)
    env.process(engine.constant_rate(rate_rps, 120.0, pool))

    def observer(env):
        yield env.timeout(40.0)
        note(f"manager state: {len(fabric.manager.workers)} workers, "
             f"{fabric.manager.worker_failures_detected} failures seen")
        yield env.timeout(15.0)
        note(f"manager now: {fabric.manager.name} "
             f"(incarnation {fabric.manager.incarnation}, "
             f"{len(fabric.manager.workers)} workers re-registered)")
        yield env.timeout(15.0)
        note(f"front ends alive: "
             f"{sorted(fe.name for fe in fabric.alive_frontends())}")

    # started first, so its t=40 look at the manager precedes the kill
    env.process(observer(env))
    faults = Faults(fabric)
    faults.arm((KillWorker(at=20.0), KillManager(at=40.0),
                KillFrontEnd(at=55.0)))
    fabric.cluster.run(until=150.0)
    for record in faults.timeline:
        role = ("distiller" if record.target in fabric.workers else
                "front end" if record.target in fabric.frontends else
                "manager")
        timeline.append((record.time, f"killed {role} {record.target}"))
    summary = summarize_outcomes(engine.outcomes)
    fallbacks = sum(1 for outcome in engine.completed()
                    if getattr(outcome.response, "status", "") ==
                    "fallback")
    timeline.sort()
    return FaultTimelineResult(
        timeline=timeline,
        success_rate=summary["success_rate"],
        fallback_count=fallbacks,
        completed=int(summary["ok"]),
        failed=int(summary["failed"]),
        manager_restarts=fabric.manager_restarts,
        frontend_restarts=(fabric.manager.frontend_restarts
                           if fabric.manager else 0),
        worker_failures_detected=(
            fabric.manager.worker_failures_detected),
    )
