"""Ablation: centralized vs distributed load balancing (Section 2.2.2).

The paper chose centralization because it is "easier to implement and
reason about" once the balancer is fault tolerant and not a bottleneck.
This benchmark measures the other axis: control-traffic scaling.
Distributed load announcements cost O(workers x front ends); the
centralized manager costs O(workers + front ends)."""

from benchmarks.conftest import run_once
from repro.core.config import SNSConfig
from repro.core.messages import BEACON_GROUP, WORKER_ANNOUNCE_GROUP
from repro.experiments._harness import build_bench_fabric, jpeg_pool
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine


def control_rate(n_frontends, balancing, workers=8, duration=30.0,
                 seed=1997):
    config = SNSConfig(balancing=balancing, spawn_threshold=1e9,
                       reap_after_s=1e9, dispatch_timeout_s=8.0,
                       frontend_connection_overhead_s=0.001)
    fabric = build_bench_fabric(n_nodes=20, seed=seed, config=config)
    fabric.boot(n_frontends=n_frontends,
                initial_workers={"jpeg-distiller": workers})
    fabric.cluster.run(until=2.0)
    engine = PlaybackEngine(
        fabric.cluster.env, fabric.submit,
        rng=RandomStreams(seed).stream("dist-playback"),
        timeout_s=30.0)
    pool = jpeg_pool(30)
    announce = fabric.cluster.multicast.group(WORKER_ANNOUNCE_GROUP)
    beacons = fabric.cluster.multicast.group(BEACON_GROUP)
    start = (announce.delivered, beacons.delivered,
             fabric.manager.reports_received, fabric.cluster.env.now)
    fabric.cluster.env.process(
        engine.constant_rate(40.0, duration, pool))
    fabric.cluster.run(until=start[3] + duration)
    elapsed = fabric.cluster.env.now - start[3]
    messages = ((announce.delivered - start[0])
                + (beacons.delivered - start[1])
                + (fabric.manager.reports_received - start[2]))
    latencies = sorted(engine.latencies())
    p95 = latencies[int(0.95 * len(latencies))] if latencies else 0.0
    return messages / elapsed, p95


def test_centralized_vs_distributed_balancing(benchmark):
    def sweep():
        rows = []
        for n_frontends in (1, 2, 4):
            central_msgs, central_p95 = control_rate(
                n_frontends, "centralized")
            dist_msgs, dist_p95 = control_rate(
                n_frontends, "distributed")
            rows.append((n_frontends, central_msgs, central_p95,
                         dist_msgs, dist_p95))
        return rows

    rows = run_once(benchmark, sweep)
    print("\ncontrol messages/second and p95 latency vs front ends "
          "(8 workers):")
    print(f"{'#FE':>4} {'central msg/s':>14} {'central p95':>12} "
          f"{'distrib msg/s':>14} {'distrib p95':>12}")
    for n_fe, c_msgs, c_p95, d_msgs, d_p95 in rows:
        print(f"{n_fe:>4} {c_msgs:>14.1f} {c_p95:>11.2f}s "
              f"{d_msgs:>14.1f} {d_p95:>11.2f}s")
    benchmark.extra_info["central_msgs_at_4fe"] = round(rows[-1][1], 1)
    benchmark.extra_info["distributed_msgs_at_4fe"] = round(
        rows[-1][3], 1)
    # both balance fine (neither p95 pathological)...
    for _, _, c_p95, _, d_p95 in rows:
        assert c_p95 < 5.0 and d_p95 < 5.0
    # ...but distributed control traffic grows much faster with FEs
    central_growth = rows[-1][1] - rows[0][1]
    distributed_growth = rows[-1][3] - rows[0][3]
    assert distributed_growth > 2 * max(central_growth, 1.0)