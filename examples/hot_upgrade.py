"""Hot upgrade: reboot the whole cluster under load, service up.

"A natural extension of this capability is to temporarily disable a
subset of nodes and then upgrade them in place ('hot upgrade')"
(Section 1.2) — and HotBot was physically moved across the Bay "without
ever being down, by moving half of the cluster at a time."

This drill rolls a software upgrade across every node of a running SNS
installation while a steady 15 req/s of traffic flows.  Watch the
monitor mark components as under maintenance instead of paging the
operator.

Run:  python examples/hot_upgrade.py
"""

from repro.chaos.campaign import Faults, RollingUpgrade
from repro.core.config import SNSConfig
from repro.experiments._harness import build_bench_fabric, jpeg_pool
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine


def main() -> None:
    config = SNSConfig(dispatch_timeout_s=5.0, spawn_damping_s=5.0,
                       frontend_connection_overhead_s=0.001)
    fabric = build_bench_fabric(n_nodes=8, seed=1997, config=config)
    fabric.boot(n_frontends=2, initial_workers={"jpeg-distiller": 2})
    fabric.cluster.run(until=2.0)

    engine = PlaybackEngine(
        fabric.cluster.env, fabric.submit,
        rng=RandomStreams(7).stream("upgrade"), timeout_s=20.0)
    pool = jpeg_pool(30, host="site")
    fabric.cluster.env.process(engine.constant_rate(15.0, 160.0, pool))

    # every dedicated node in turn: down 4 s for the new software, then
    # 8 s for its peers to settle before the next one goes
    faults = Faults(fabric)
    faults.arm((RollingUpgrade(at=2.0, nodes=tuple(
        node.name for node in fabric.cluster.dedicated_nodes)),))
    fabric.cluster.run(until=220.0)

    print("rolling upgrade timeline:")
    for record in faults.timeline:
        print(f"  t={record.time:6.1f}s  {record.kind} {record.target}")
    ok = len(engine.completed())
    total = len(engine.outcomes)
    print(f"\navailability through the whole upgrade: {ok}/{total} "
          f"({ok / total:.1%})")
    print(f"all nodes back up: "
          f"{all(node.up for node in fabric.cluster.dedicated_nodes)}")
    print(f"operator pages raised: "
          f"{len(fabric.monitor.pages()) if fabric.monitor else 0} "
          "(maintenance mode suppressed the planned silences)")


if __name__ == "__main__":
    main()
