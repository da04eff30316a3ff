"""Self-tuning tests: spawn threshold H, damping D, reaping, overflow
(Sections 2.2.3 and 4.5)."""

import pytest

from repro.core.config import MIN_WORKERS_PER_TYPE
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from tests.core.conftest import fast_config, make_fabric, make_record


def drive(fabric, rate, duration, seed=1):
    engine = PlaybackEngine(fabric.cluster.env, fabric.submit,
                            rng=RandomStreams(seed).stream("pb"),
                            timeout_s=30.0)
    pool = [make_record(i) for i in range(30)]
    fabric.cluster.env.process(engine.constant_rate(rate, duration, pool))
    return engine


def test_overload_triggers_spawn(fabric):
    """Offered load beyond one worker's capacity grows its queue past H
    and the manager spawns another worker."""
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    drive(fabric, rate=45.0, duration=60.0)  # ~25/s per worker capacity
    fabric.cluster.run(until=70.0)
    assert fabric.manager.spawns >= 1
    assert len(fabric.alive_workers("test-worker")) >= 2


def test_spawn_damping_limits_spawn_rate():
    """With damping D, spawns are at least D seconds apart per type."""
    fabric = make_fabric(n_nodes=12,
                         config=fast_config(spawn_damping_s=8.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    drive(fabric, rate=100.0, duration=40.0)
    spawn_times = []

    original = fabric.spawn_worker

    def recording_spawn(worker_type, node=None):
        spawn_times.append(fabric.cluster.env.now)
        return original(worker_type, node)

    fabric.spawn_worker = recording_spawn
    fabric.cluster.run(until=60.0)
    assert len(spawn_times) >= 2
    gaps = [b - a for a, b in zip(spawn_times, spawn_times[1:])]
    # SPAWN_DELAY adds 1s slack around the D=8s damping window
    assert all(gap >= 7.0 for gap in gaps), gaps


def test_queue_rebalances_after_spawn(fabric):
    """Figure 8(a): a new distiller 'reduced the queue length of the
    first distiller and balanced the load across both distillers within
    five seconds.'"""
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    drive(fabric, rate=40.0, duration=120.0)
    fabric.cluster.run(until=120.0)
    workers = fabric.alive_workers("test-worker")
    assert len(workers) >= 2
    loads = sorted(stub.load for stub in workers)
    # balanced: no worker holds the entire backlog
    assert loads[-1] <= fabric.config.spawn_threshold * 3 + 5


def test_reaping_after_load_subsides():
    fabric = make_fabric(
        n_nodes=10,
        config=fast_config(reap_after_s=6.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 3})
    fabric.cluster.run(until=2.0)
    # brief load so queues register, then silence
    drive(fabric, rate=10.0, duration=5.0)
    fabric.cluster.run(until=60.0)
    assert fabric.manager.reaps >= 1
    survivors = len(fabric.alive_workers("test-worker"))
    assert survivors >= MIN_WORKERS_PER_TYPE
    assert survivors < 3


def test_overflow_pool_recruited_when_dedicated_exhausted():
    """Section 2.2.3: 'the manager can spawn workers on the overflow
    machines on demand when unexpected load bursts arrive.'"""
    fabric = make_fabric(n_nodes=3, n_overflow=4)
    # nodes: manager+monitor share one, FE one, worker one -> dedicated full
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    drive(fabric, rate=80.0, duration=60.0)
    fabric.cluster.run(until=80.0)
    overflow_workers = [stub for stub in fabric.alive_workers()
                        if stub.node.overflow]
    assert overflow_workers, "burst should recruit overflow nodes"


def test_overflow_disabled_keeps_work_on_dedicated_nodes():
    fabric = make_fabric(n_nodes=3, n_overflow=4,
                         config=fast_config(use_overflow_pool=False))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    drive(fabric, rate=80.0, duration=40.0)
    fabric.cluster.run(until=60.0)
    assert all(not stub.node.overflow for stub in fabric.alive_workers())


def test_reap_prefers_overflow_nodes():
    """'Once the burst subsides, the distillers may be reaped' — and the
    overflow machines are released first."""
    fabric = make_fabric(
        n_nodes=3, n_overflow=2,
        config=fast_config(reap_after_s=5.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    # force a worker onto an overflow node
    overflow_node = fabric.cluster.overflow_nodes[0]
    fabric.spawn_worker("test-worker", overflow_node)
    fabric.cluster.run(until=4.0)
    assert len(fabric.alive_workers("test-worker")) == 2
    # no load at all: reap timer runs out
    fabric.cluster.run(until=40.0)
    survivors = fabric.alive_workers("test-worker")
    assert len(survivors) == 1
    assert not survivors[0].node.overflow


def test_spawn_uses_free_nodes_before_colocating(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    drive(fabric, rate=60.0, duration=60.0)
    fabric.cluster.run(until=70.0)
    workers = fabric.alive_workers("test-worker")
    assert len(workers) >= 2
    nodes = [stub.node.name for stub in workers]
    assert len(set(nodes)) == len(nodes), "workers should spread out"
