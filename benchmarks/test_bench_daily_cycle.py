"""Integration benchmark: a day in the life of the installation.

The whole architecture in one run: bursty daily-cycle traffic (the
Figure 6 workload) drives the spawn/reap policy up and down the load
curve, with the overflow pool absorbing the evening peak — the
Section 2.2.3 story end to end.  The day is compressed 24:1 (policy
timers scaled to match) so it runs in simulated 'hours' of seconds.
"""

from benchmarks.conftest import run_once
from repro.core.config import SNSConfig
from repro.experiments._harness import build_bench_fabric, jpeg_pool
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine
from repro.workload.tracegen import daily_cycle_factor


def run_day(seed=1997, compressed_day_s=900.0, peak_rate_rps=90.0):
    config = SNSConfig(spawn_threshold=8.0, spawn_damping_s=8.0,
                       reap_after_s=30.0,
                       dispatch_timeout_s=8.0,
                       frontend_connection_overhead_s=0.002)
    # a dedicated pool sized for the average, so the evening peak must
    # recruit overflow machines (the Section 2.2.3 provisioning policy)
    fabric = build_bench_fabric(n_nodes=6, n_overflow=6, seed=seed,
                                config=config)
    fabric.boot(n_frontends=2, initial_workers={"jpeg-distiller": 1})
    env = fabric.cluster.env
    fabric.cluster.run(until=2.0)

    engine = PlaybackEngine(env, fabric.submit,
                            rng=RandomStreams(seed).stream("day"),
                            timeout_s=60.0)
    pool = jpeg_pool(50, host="site")
    # the 24 h cycle compressed into compressed_day_s, 40 steps
    steps = []
    n_steps = 40
    for index in range(n_steps):
        hour_time = 86400.0 * index / n_steps
        rate = max(0.5, peak_rate_rps / 1.65
                   * daily_cycle_factor(hour_time))
        steps.append((compressed_day_s / n_steps, rate))
    env.process(engine.ramp(steps, pool))

    pool_sizes = []
    overflow_in_use = []

    def sampler(env):
        while env.now < compressed_day_s:
            yield env.timeout(compressed_day_s / 100)
            workers = fabric.alive_workers("jpeg-distiller")
            pool_sizes.append((env.now, len(workers)))
            overflow_in_use.append(sum(
                1 for stub in workers if stub.node.overflow))

    env.process(sampler(env))
    fabric.cluster.run(until=compressed_day_s + 120.0)
    return fabric, engine, pool_sizes, overflow_in_use


def test_day_in_the_life(benchmark):
    fabric, engine, pool_sizes, overflow_in_use = run_once(
        benchmark, run_day)
    sizes = [size for _, size in pool_sizes]
    peak_pool = max(sizes)
    trough_pool = min(sizes[len(sizes) // 2:])  # after warm-up
    ok = len(engine.completed())
    total = len(engine.outcomes)
    print(f"\na compressed day at the installation:")
    print(f"  requests: {total}, answered {ok / total:.1%}")
    print(f"  distiller pool: trough {trough_pool}, peak {peak_pool}")
    print(f"  spawns {fabric.manager.spawns}, reaps "
          f"{fabric.manager.reaps}")
    print(f"  overflow nodes recruited at peak: "
          f"{max(overflow_in_use)}")
    benchmark.extra_info["peak_pool"] = peak_pool
    benchmark.extra_info["spawns"] = fabric.manager.spawns
    benchmark.extra_info["reaps"] = fabric.manager.reaps
    benchmark.extra_info["availability"] = round(ok / total, 4)
    # the pool breathes with the load
    assert peak_pool >= trough_pool + 2
    assert fabric.manager.spawns >= 3
    assert fabric.manager.reaps >= 1
    # and the users barely notice any of it
    assert ok > 0.95 * total
