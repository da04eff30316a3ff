"""Hot-upgrade benchmark: rolling reboot of the whole dedicated pool
under load, service continuously available (Section 1.2)."""

from benchmarks.conftest import run_once
from repro.chaos.campaign import Faults, RollingUpgrade
from repro.core.config import SNSConfig
from repro.experiments._harness import build_bench_fabric, jpeg_pool
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine


def test_rolling_upgrade_availability(benchmark):
    def scenario():
        config = SNSConfig(dispatch_timeout_s=5.0, spawn_damping_s=5.0,
                           frontend_connection_overhead_s=0.001)
        fabric = build_bench_fabric(n_nodes=10, seed=1997,
                                    config=config)
        fabric.boot(n_frontends=2,
                    initial_workers={"jpeg-distiller": 2})
        fabric.cluster.run(until=2.0)
        engine = PlaybackEngine(
            fabric.cluster.env, fabric.submit,
            rng=RandomStreams(1997).stream("upgrade-playback"),
            timeout_s=20.0)
        pool = jpeg_pool(30)
        fabric.cluster.env.process(
            engine.constant_rate(15.0, 200.0, pool))
        faults = Faults(fabric)
        faults.arm((RollingUpgrade(at=2.0, nodes=tuple(
            node.name for node in fabric.cluster.dedicated_nodes)),))
        fabric.cluster.run(until=280.0)
        return fabric, engine, faults

    fabric, engine, faults = run_once(benchmark, scenario)
    total = len(engine.outcomes)
    ok = len(engine.completed())
    fallbacks = sum(1 for outcome in engine.completed()
                    if getattr(outcome.response, "status", "") ==
                    "fallback")
    print(f"\nrolling upgrade of {len(fabric.cluster.dedicated_nodes)} "
          f"nodes under 15 req/s:")
    for record in faults.timeline:
        print(f"  t={record.time:6.1f}s  {record.kind} {record.target}")
    print(f"availability: {ok}/{total} answered "
          f"({fallbacks} approximate)")
    benchmark.extra_info["availability"] = round(ok / total, 4)
    assert all(node.up for node in fabric.cluster.dedicated_nodes)
    assert ok > 0.85 * total
    assert fabric.manager.alive
