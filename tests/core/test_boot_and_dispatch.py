"""Integration tests: boot, registration, dispatch, load reporting."""

import pytest

from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from tests.core.conftest import fast_config, make_fabric, make_record


def test_boot_starts_manager_frontend_worker(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=3.0)
    assert fabric.manager.alive
    assert fabric.manager.beacons_sent >= 4
    # the worker heard a beacon and registered
    assert len(fabric.manager.workers) == 1
    info = next(iter(fabric.manager.workers.values()))
    assert info.worker_type == "test-worker"
    # the FE registered as the manager's process peer
    assert len(fabric.manager.frontends) == 1


def test_single_request_round_trip(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    reply = fabric.submit(make_record(size=10000))
    response = fabric.cluster.env.run(until=reply)
    assert response.status == "ok"
    assert response.path == "distilled"
    assert response.size_bytes == 5000


def test_load_reports_reach_manager(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=5.0)
    assert fabric.manager.reports_received >= 6
    info = next(iter(fabric.manager.workers.values()))
    assert info.last_report_at > 3.0


def test_on_demand_spawn_when_no_worker_exists(fabric):
    """Section 4.5: 'On-demand spawning of the first distiller was
    observed as soon as load was offered.'"""
    fabric.boot(n_frontends=1, initial_workers={})
    fabric.cluster.run(until=2.0)
    assert len(fabric.manager.workers) == 0
    reply = fabric.submit(make_record())
    response = fabric.cluster.env.run(until=reply)
    assert response.status == "ok"
    assert fabric.manager.spawns == 1
    assert len(fabric.alive_workers("test-worker")) == 1


def test_requests_balance_across_workers(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 3})
    fabric.cluster.run(until=2.0)
    engine = PlaybackEngine(
        fabric.cluster.env, fabric.submit,
        rng=RandomStreams(1).stream("pb"))
    pool = [make_record(i) for i in range(20)]
    fabric.cluster.env.process(engine.constant_rate(30.0, 20.0, pool))
    fabric.cluster.run(until=30.0)
    served = sorted(stub.served for stub in fabric.alive_workers())
    assert sum(served) == len(engine.completed())
    assert served[0] > sum(served) * 0.15  # nobody starved


def test_worker_error_falls_back_to_original(fabric):
    """Pathological input fails the request, not the system — the FE
    returns the original content (approximate answer)."""
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)

    record = make_record()
    # make the content pathological by URL convention: DispatchService
    # builds b"x"*size, so instead inject via a custom record size-0 +
    # monkeypatched content is overkill; use the worker's trigger directly
    from repro.tacc.content import Content
    from repro.tacc.worker import TACCRequest
    from tests.core.conftest import TestWorker

    frontend = next(iter(fabric.frontends.values()))
    from repro.core.messages import Request
    bad = Content("http://x/bad.jpg", "image/jpeg", b"PATHOLOGICAL" * 10)
    work = TACCRequest(inputs=[bad])

    def scenario(env):
        from repro.core.manager_stub import DispatchError
        from repro.tacc.worker import WorkerError
        try:
            yield from frontend.stub.dispatch(Request(env, record), work,
                                              "test-worker")
        except WorkerError:
            return "worker-error"
        except DispatchError:
            return "dispatch-error"
        return "ok"

    result = fabric.cluster.env.run(
        until=fabric.cluster.env.process(scenario(fabric.cluster.env)))
    assert result == "worker-error"
    # the worker survived and still serves good requests
    reply = fabric.submit(make_record())
    response = fabric.cluster.env.run(until=reply)
    assert response.status == "ok"


def test_throughput_sustained_under_capacity(fabric):
    """2 workers at ~25 req/s each handle 30 req/s with low latency."""
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    engine = PlaybackEngine(fabric.cluster.env, fabric.submit,
                            rng=RandomStreams(2).stream("pb"),
                            timeout_s=20.0)
    pool = [make_record(i) for i in range(50)]
    fabric.cluster.env.process(engine.constant_rate(30.0, 30.0, pool))
    fabric.cluster.run(until=45.0)
    assert len(engine.failed()) == 0
    latencies = sorted(engine.latencies())
    p50 = latencies[len(latencies) // 2]
    assert p50 < 1.0


def test_frontend_connection_overhead_limits_throughput():
    """With a 14 ms per-connection cost, one FE tops out near 70 req/s
    (the Section 4.6 measurement) no matter how many workers exist."""
    fabric = make_fabric(
        n_nodes=10,
        config=fast_config(frontend_connection_overhead_s=0.014,
                           spawn_threshold=1e9))  # no autoscaling
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 6})
    fabric.cluster.run(until=2.0)
    engine = PlaybackEngine(fabric.cluster.env, fabric.submit,
                            rng=RandomStreams(3).stream("pb"))
    pool = [make_record(i) for i in range(50)]
    fabric.cluster.env.process(engine.constant_rate(120.0, 30.0, pool))
    fabric.cluster.run(until=32.0)
    frontend = next(iter(fabric.frontends.values()))
    completed_rate = len(engine.completed()) / 30.0
    assert completed_rate < 80.0
    assert frontend.is_saturated()
