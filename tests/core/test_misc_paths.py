"""Focused tests for remaining code paths: queue-full refusal and retry,
heterogeneous nodes, condition failure propagation, and burstiness
properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.workload.burstiness import utilization_line
from repro.workload.playback import PlaybackEngine

from tests.core.conftest import fast_config, make_fabric, make_record


# -- worker queue refusal and retry ------------------------------------------------

def test_full_worker_queue_refuses_and_fe_retries():
    fabric = make_fabric(
        config=fast_config(worker_queue_capacity=2,
                           spawn_threshold=1e9,
                           dispatch_timeout_s=6.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    refusals = []

    def noting_refusals(submit):
        def noted(envelope):
            accepted = submit(envelope)
            if not accepted:
                refusals.append(envelope)
            return accepted
        return noted

    for stub in fabric.alive_workers():
        stub.submit = noting_refusals(stub.submit)
    # slam one burst in faster than two tiny queues can hold
    replies = [fabric.submit(make_record(i)) for i in range(12)]
    fabric.cluster.run(until=30.0)
    # the burst overflowed at least one queue...
    assert refusals
    # ...yet every request got an answer (retry or fallback)
    done = [reply for reply in replies if reply.triggered]
    assert len(done) == 12
    frontend = next(iter(fabric.frontends.values()))
    assert frontend.stub.retries >= 1


# -- heterogeneous nodes ---------------------------------------------------------------

def test_faster_node_serves_more():
    """Commodity heterogeneity (Section 1.2): a 2x node hosting the
    same worker type absorbs about double the work, with no policy
    changes — the queue-based lottery does it automatically."""
    fabric = make_fabric(n_nodes=0,
                         config=fast_config(spawn_threshold=1e9,
                                            reap_after_s=1e9))
    cluster = fabric.cluster
    cluster.add_node("fast", speed=2.0)
    cluster.add_node("slow", speed=1.0)
    cluster.add_nodes(3)
    fabric.boot(n_frontends=1, initial_workers={})
    fabric.spawn_worker("test-worker", cluster.nodes["fast"])
    fabric.spawn_worker("test-worker", cluster.nodes["slow"])
    fabric.cluster.run(until=2.0)
    engine = PlaybackEngine(cluster.env, fabric.submit,
                            rng=RandomStreams(3).stream("pb"),
                            timeout_s=60.0)
    pool = [make_record(i) for i in range(30)]
    cluster.env.process(engine.constant_rate(55.0, 40.0, pool))
    fabric.cluster.run(until=80.0)
    by_node = {stub.node.name: stub.served
               for stub in fabric.alive_workers()}
    # below saturation the lottery only shifts work when queues differ,
    # so the split is between even and fully speed-proportional (2x)
    assert by_node["fast"] > 1.25 * by_node["slow"], by_node


# -- kernel condition failure -----------------------------------------------------------

def test_all_of_fails_when_any_member_fails():
    env = Environment()

    def failer(env):
        yield env.timeout(1.0)
        raise RuntimeError("member died")

    def waiter(env):
        ok_event = env.timeout(5.0)
        bad_process = env.process(failer(env))
        try:
            yield env.all_of([ok_event, bad_process])
        except RuntimeError as error:
            return f"propagated: {error}"

    assert env.run(until=env.process(waiter(env))) == \
        "propagated: member died"


# -- burstiness property ---------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    counts=st.lists(st.integers(0, 50), min_size=2, max_size=60),
    target=st.floats(min_value=0.1, max_value=1.0),
)
def test_utilization_line_hits_target_fraction(counts, target):
    """The line returned really does put `target` of the traffic under
    it (within binary-search tolerance)."""
    total = sum(counts)
    if total == 0:
        assert utilization_line(counts, 1.0, target) == 0.0
        return
    line = utilization_line(counts, 1.0, target)
    under = sum(min(count, line) for count in counts)
    assert under / total == pytest.approx(target, abs=0.02)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=2, max_size=60))
def test_utilization_line_monotone_in_target(counts):
    if sum(counts) == 0:
        return
    lines = [utilization_line(counts, 1.0, fraction)
             for fraction in (0.25, 0.5, 0.75, 1.0)]
    for lower, higher in zip(lines, lines[1:]):
        assert higher >= lower - 1e-6
