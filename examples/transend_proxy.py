"""TranSend end to end: the distillation proxy on a simulated cluster.

Boots the full stack — manager, monitor, front end, cache nodes, ACID
profile store — replays a synthetic slice of the Berkeley dialup
workload against it, kills a distiller mid-run to show the SNS layer
routing around the fault, and prints the service stats and the monitor
panel at the end.

Run:  python examples/transend_proxy.py
"""

from repro.chaos.campaign import Faults, KillWorker
from repro.core.config import SNSConfig
from repro.sim.rng import RandomStreams
from repro.transend.service import TranSend
from repro.workload.playback import PlaybackEngine
from repro.workload.tracegen import TraceGenerator


def main() -> None:
    transend = TranSend(
        n_nodes=10,
        n_cache_nodes=4,
        seed=1997,
        config=SNSConfig(dispatch_timeout_s=5.0, spawn_damping_s=8.0),
    )
    transend.start(n_frontends=1, initial_workers={})
    transend.fabric.start_monitor()

    # a user customizes their distillation settings
    transend.set_preference("client3", "quality", 10)
    transend.set_preference("client3", "scale", 4)

    # replay 90 seconds of synthetic dialup traffic
    trace = TraceGenerator(seed=42, mean_rate_rps=8.0,
                           n_users=50).generate(90.0)
    print(f"replaying {len(trace)} traced requests...")
    engine = PlaybackEngine(
        transend.cluster.env, transend.submit,
        rng=RandomStreams(7).stream("example"),
        timeout_s=120.0)
    transend.cluster.env.process(engine.play(trace))

    # fault injection: a row that kills the first live distiller at
    # t=45s (the SNS layer will route around it)
    faults = Faults(transend.fabric)
    faults.arm((KillWorker(at=45.0),))
    transend.run(until=240.0)

    # what happened
    for record in faults.timeline:
        print(f"  t={record.time:.0f}s: {record.kind} {record.target}")
    stats = transend.stats()
    completed = engine.completed()
    latencies = sorted(engine.latencies())
    print(f"\ncompleted {len(completed)}/{len(engine.outcomes)} "
          "requests")
    if latencies:
        print(f"median latency {latencies[len(latencies) // 2]:.2f}s, "
              f"p95 {latencies[int(0.95 * len(latencies))]:.2f}s")
    print("\nresponse paths (the BASE taxonomy of Section 3.1.8):")
    for path, count in sorted(stats["paths"].items()):
        print(f"  {path:<22} {count}")
    print(f"\ncache hit rate: {stats['cache_hit_rate']:.0%}")
    print(f"origin fetches: {stats['origin_fetches']}")
    print(f"distillers spawned by the manager: "
          f"{stats['manager_spawns']}")
    print("\n" + transend.fabric.monitor.render())


if __name__ == "__main__":
    main()
