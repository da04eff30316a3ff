"""Figure 8: distiller queue lengths under self-tuning and faults.

The paper's narrative, reproduced event for event: the system boots with
one front end and the manager; the first distiller is spawned on demand
as soon as load is offered; rising load pushes the moving-average queue
length past the threshold H, spawning distillers 2 and 3, each
rebalancing queues within seconds; at t≈270 s the experimenter kills two
distillers, load on the survivor spikes, and the manager immediately
spawns replacements (Figure 8(b)), restabilizing the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import render_series
from repro.chaos.campaign import Faults, KillWorker
from repro.core.config import SNSConfig
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from repro.experiments._harness import build_bench_fabric, jpeg_pool


@dataclass
class Figure8Result:
    series: Dict[str, List[Tuple[float, float]]]
    events: List[Tuple[float, str]]
    kill_time: float
    spawn_times: List[float]
    post_kill_recovery_s: Optional[float]
    completed_requests: int
    failed_requests: int

    def render(self) -> str:
        parts = ["Figure 8 — distiller queue lengths over time"]
        for name in sorted(self.series):
            parts.append(render_series(self.series[name], height=8,
                                       title=f"\n{name}:"))
        parts.append("\nevents:")
        for time, label in self.events:
            parts.append(f"  t={time:6.1f}s  {label}")
        if self.post_kill_recovery_s is not None:
            parts.append(f"\nrecovery after kills: "
                         f"{self.post_kill_recovery_s:.1f}s")
        return "\n".join(parts)


def run_figure8(
    duration_s: float = 400.0,
    kill_at_s: float = 270.0,
    seed: int = 1997,
    peak_rate_rps: float = 40.0,
) -> Figure8Result:
    config = SNSConfig(spawn_threshold=10.0, spawn_damping_s=15.0,
                       dispatch_timeout_s=8.0)
    fabric = build_bench_fabric(n_nodes=16, seed=seed, config=config)
    fabric.boot(n_frontends=1, initial_workers={})
    env = fabric.cluster.env
    events: List[Tuple[float, str]] = []

    # offered load: four rising steps to the peak, as in Figure 8(a)
    steps = [(duration_s / 5.0, peak_rate_rps * factor)
             for factor in (0.25, 0.5, 0.75, 1.0, 1.0)]
    engine = PlaybackEngine(
        env, fabric.submit,
        rng=RandomStreams(seed).stream("fig8-playback"),
        timeout_s=60.0)
    pool = jpeg_pool(50)
    env.process(engine.ramp(steps, pool))

    # the manual kills of Figure 8(b)
    faults = Faults(fabric)
    faults.arm((KillWorker(at=kill_at_s), KillWorker(at=kill_at_s)))

    # sample instantaneous queue lengths (what the paper plots)
    series: Dict[str, List[Tuple[float, float]]] = {}
    seen: Dict[str, float] = {}

    def sampler(env):
        while env.now < duration_s:
            yield env.timeout(2.0)
            for stub in fabric.alive_workers():
                if stub.name not in seen:
                    seen[stub.name] = env.now
                    events.append((env.now, f"{stub.name} started"))
                series.setdefault(stub.name, []).append(
                    (env.now, float(stub.load)))

    env.process(sampler(env))
    fabric.cluster.run(until=duration_s + 60.0)

    # recovery: first time after the kills when the max live queue is
    # back under the spawn threshold
    recovery: Optional[float] = None
    times = sorted({t for points in series.values() for t, _ in points})
    for time in times:
        if time <= kill_at_s + 2.0:
            continue
        loads = [value for points in series.values()
                 for t, value in points if t == time]
        if loads and max(loads) < config.spawn_threshold:
            recovery = time - kill_at_s
            break

    events.extend((record.time, f"killed {record.target}")
                  for record in faults.timeline)
    events.sort()
    return Figure8Result(
        series=series,
        events=events,
        kill_time=kill_at_s,
        spawn_times=sorted(seen.values()),
        post_kill_recovery_s=recovery,
        completed_requests=len(engine.completed()),
        failed_requests=len(engine.failed()),
    )
