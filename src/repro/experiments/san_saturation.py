"""Section 4.6's SAN-saturation exploration.

"As a preliminary exploration of how TranSend behaves as the SAN
saturates, we repeated the scalability experiments using a 10 Mb/s
switched Ethernet.  As the network was driven closer to saturation, we
noticed that most of our (unreliable) multicast traffic was being
dropped, crippling the ability of the manager to balance load and the
ability of the monitor to report system conditions."

The driver runs the same JPEG workload on a 100 Mb/s and a 10 Mb/s SAN
and reports beacon loss, dispatch health, and latency on each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.metrics import summarize_outcomes
from repro.core.config import SNSConfig
from repro.core.messages import BEACON_GROUP
from repro.sim.network import MBPS
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from repro.experiments._harness import build_bench_fabric, jpeg_pool


@dataclass
class SanRunStats:
    bandwidth_mbps: float
    san_utilization: float
    beacon_loss_rate: float
    dispatch_timeouts: int
    completed: int
    failed: int
    p95_latency_s: float


@dataclass
class SanSaturationResult:
    fast: SanRunStats
    slow: SanRunStats
    #: the Section 4.6 remedy: same slow SAN, control traffic isolated
    #: on a low-speed utility network.
    slow_with_utility: "SanRunStats | None" = None

    def render(self) -> str:
        def block(stats: SanRunStats, suffix: str = "") -> str:
            return (
                f"  SAN {stats.bandwidth_mbps:.0f} Mb/s{suffix}: "
                f"utilization {stats.san_utilization:.0%}, "
                f"beacon loss {stats.beacon_loss_rate:.0%}, "
                f"dispatch timeouts {stats.dispatch_timeouts}, "
                f"completed {stats.completed}, failed {stats.failed}, "
                f"p95 latency {stats.p95_latency_s:.2f}s"
            )

        lines = ["SAN saturation (Section 4.6)",
                 block(self.fast), block(self.slow)]
        if self.slow_with_utility is not None:
            lines.append(block(self.slow_with_utility,
                               " + utility net"))
        return "\n".join(lines)


def _run_once(bandwidth_bps: float, rate_rps: float, duration_s: float,
              seed: int, image_bytes: int,
              with_utility_network: bool = False) -> SanRunStats:
    config = SNSConfig(spawn_threshold=1e9,  # fixed worker pool
                       dispatch_timeout_s=5.0)
    fabric = build_bench_fabric(
        n_nodes=12, seed=seed, config=config,
        san_bandwidth_bps=bandwidth_bps)
    if with_utility_network:
        fabric.cluster.network.add_utility_network()
    fabric.boot(n_frontends=1, initial_workers={"jpeg-distiller": 8})
    env = fabric.cluster.env
    fabric.cluster.run(until=2.0)
    engine = PlaybackEngine(
        env, fabric.submit,
        rng=RandomStreams(seed).stream("san-playback"),
        timeout_s=30.0)
    pool = jpeg_pool(50, image_bytes)
    env.process(engine.constant_rate(rate_rps, duration_s, pool))
    fabric.cluster.run(until=env.now + duration_s + 30.0)
    beacon_group = fabric.cluster.multicast.group(BEACON_GROUP)
    summary = summarize_outcomes(engine.outcomes)
    timeouts = sum(frontend.stub.timeouts
                   for frontend in fabric.frontends.values())
    return SanRunStats(
        bandwidth_mbps=bandwidth_bps / MBPS,
        san_utilization=min(
            1.0, fabric.cluster.network.san.utilization()),
        beacon_loss_rate=beacon_group.loss_rate,
        dispatch_timeouts=timeouts,
        completed=int(summary["ok"]),
        failed=int(summary["failed"]),
        p95_latency_s=summary["p95"],
    )


def run_san_saturation(rate_rps: float = 80.0, duration_s: float = 60.0,
                       seed: int = 1997, image_bytes: int = 20480,
                       include_utility: bool = True, jobs: int = 1
                       ) -> SanSaturationResult:
    """Drive the same data load over a fast and a slow SAN.

    The defaults put ~1.7 MB/s of content traffic on the interior
    network: 13 % of a 100 Mb/s SAN, but >130 % of a 10 Mb/s one —
    exactly the regime where the unreliable beacons start dropping.
    The third run applies the paper's own proposed remedy: the same
    saturated SAN, with beacons isolated on a utility network.

    The three arms are independent simulations; ``jobs > 1`` fans them
    across worker processes with byte-identical results.
    """
    arms = [
        dict(bandwidth_bps=100 * MBPS, rate_rps=rate_rps,
             duration_s=duration_s, seed=seed, image_bytes=image_bytes),
        dict(bandwidth_bps=10 * MBPS, rate_rps=rate_rps,
             duration_s=duration_s, seed=seed, image_bytes=image_bytes),
    ]
    if include_utility:
        arms.append(dict(arms[1], with_utility_network=True))
    if jobs > 1:
        from repro.experiments._harness import run_grid
        stats = run_grid(_run_once, arms, jobs=jobs,
                         label="san").values()
    else:
        stats = [_run_once(**arm) for arm in arms]
    return SanSaturationResult(
        fast=stats[0],
        slow=stats[1],
        slow_with_utility=stats[2] if include_utility else None,
    )
