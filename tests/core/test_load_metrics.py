"""Tests for the optional cost-weighted load metric (Section 3.1.2,
footnote 2)."""

import pytest

from repro.core.manager import WorkerInfo
from repro.core.messages import LoadReport, RegisterWorker
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine
from repro.workload.trace import TraceRecord

from tests.core.conftest import fast_config, make_fabric


def report(queue_length, weighted_load, at=1.0):
    return LoadReport("w1", "test-worker", "n0", queue_length,
                      weighted_load, at)


def make_info():
    registration = RegisterWorker("w1", "test-worker", "n0", None)
    return WorkerInfo(registration, endpoint=None, now=0.0)


def test_queue_metric_tracks_counts():
    info = make_info()
    info.update(report(10, 0.5), alpha=1.0, load_metric="queue")
    assert info.queue_avg == 10.0


def test_weighted_metric_tracks_seconds_of_work():
    info = make_info()
    info.update(report(10, 0.5), alpha=1.0, load_metric="weighted-cost")
    assert info.queue_avg == 0.5


def test_config_rejects_unknown_metric():
    with pytest.raises(ValueError):
        fast_config(load_metric="vibes").validate()


def test_weighted_load_report_includes_in_service_item():
    """A busy worker's weighted load counts the request on the CPU, not
    just the queue behind it."""
    fabric = make_fabric(config=fast_config(load_metric="weighted-cost",
                                            spawn_threshold=1e9))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    stub = fabric.alive_workers()[0]
    # inject a request directly: the stub prices it by the worker's own
    # estimate (TestWorker's flat 40 ms) as it accepts it
    from repro.core.messages import Request, WorkEnvelope
    from repro.tacc.content import Content
    from repro.tacc.worker import TACCRequest
    from tests.core.conftest import TestWorker

    env = fabric.cluster.env
    content = Content("u", "image/jpeg", b"x" * 1000)
    envelope = WorkEnvelope(env, Request(env, None),
                            TACCRequest(inputs=[content]))
    stub.submit(envelope)
    assert envelope.cost_s == TestWorker.cost_s

    def probe(env):
        yield env.timeout(0.01)  # let the stub pick it up
        return stub._weighted_load()

    load = fabric.cluster.env.run(
        until=fabric.cluster.env.process(probe(fabric.cluster.env)))
    assert load == pytest.approx(TestWorker.cost_s)


def test_weighted_metric_spawns_on_expensive_backlog():
    """With weighted-cost, H is seconds of tolerated delay: a queue of
    few-but-expensive requests crosses it even though the count stays
    under the count-based threshold."""
    fabric = make_fabric(config=fast_config(
        load_metric="weighted-cost",
        spawn_threshold=2.0,       # tolerate ~2s of backlog
        spawn_damping_s=3.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    engine = PlaybackEngine(
        fabric.cluster.env, fabric.submit,
        rng=RandomStreams(5).stream("pb"), timeout_s=60.0)
    # huge inputs: ~0.04s each is the worker's flat cost, but the
    # service passes expected cost from content size; use many requests
    pool = [TraceRecord(0.0, "c", f"http://x/{i}.jpg", "image/jpeg",
                        10240) for i in range(20)]
    fabric.cluster.env.process(engine.constant_rate(60.0, 30.0, pool))
    fabric.cluster.run(until=60.0)
    assert fabric.manager.spawns >= 1
    assert len(fabric.alive_workers("test-worker")) >= 2
