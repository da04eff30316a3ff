"""Chaos soak test: random faults against every component class while
invariants are checked continuously.

This is the property the whole architecture exists for: "when a
component fails, one of its peers restarts it ... while cached stale
state carries the surviving components through the failure."  Under a
random kill process (workers, front ends, the manager) the system must

* keep answering the overwhelming majority of requests,
* converge back to a live manager + live front ends + live workers,
* never crash the simulation (no unhandled exceptions anywhere), and
* never leak node attachments (dead components detach from nodes).
"""

import pytest

from repro.chaos.campaign import Faults, RandomKills
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from tests.core.conftest import fast_config, make_fabric, make_record


def run_chaos(seed, mtbf_s=15.0, duration_s=180.0, rate_rps=12.0):
    fabric = make_fabric(n_nodes=12, seed=seed,
                         config=fast_config(spawn_damping_s=3.0))
    fabric.boot(n_frontends=2, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)

    engine = PlaybackEngine(
        fabric.cluster.env, fabric.submit,
        rng=RandomStreams(seed).stream("chaos-playback"),
        timeout_s=25.0)
    pool = [make_record(i) for i in range(30)]
    fabric.cluster.env.process(
        engine.constant_rate(rate_rps, duration_s, pool))

    # kills stop 30 s before the load does; the last front end is
    # spared, so someone can always restart the manager
    faults = Faults(fabric)
    faults.arm((RandomKills(at=2.0, duration_s=duration_s - 32.0,
                            mtbf_s=mtbf_s),))
    fabric.cluster.run(until=duration_s + 60.0)
    return fabric, engine, faults.timeline


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_chaos_system_survives_and_converges(seed):
    fabric, engine, timeline = run_chaos(seed)
    # faults actually happened
    assert len(timeline) >= 3, timeline
    # convergence: full stack alive at the end
    assert fabric.manager is not None and fabric.manager.alive
    assert fabric.alive_frontends()
    assert fabric.alive_workers("test-worker")
    # availability through the ordeal
    total = len(engine.outcomes)
    assert total > 0
    ok = len(engine.completed())
    assert ok > 0.85 * total, (ok, total, timeline)
    # no node attachment leaks: every attached component is alive
    live_names = {c.name for c in fabric.alive_workers()}
    live_names |= {fe.name for fe in fabric.alive_frontends()}
    if fabric.manager and fabric.manager.alive:
        live_names.add(fabric.manager.name)
    if fabric.monitor and fabric.monitor.alive:
        live_names.add(fabric.monitor.name)
    for node in fabric.cluster.nodes.values():
        for attached in node.components:
            assert attached in live_names, (
                f"{attached} still attached to {node.name} but dead")


def test_chaos_deterministic_given_seed():
    first = run_chaos(404, duration_s=90.0)
    second = run_chaos(404, duration_s=90.0)
    assert len(first[1].outcomes) == len(second[1].outcomes)
    assert first[2] == second[2]
