"""Unit tests for spans, the tracer, sampling, and the hand-off
protocol."""

import pytest

from repro.obs.trace import (
    OTHER,
    QUEUEING,
    SERVICE,
    Span,
    Tracer,
    install_tracer,
)
from repro.sim.cluster import Cluster
from repro.sim.kernel import Environment


def make_tracer(**kwargs):
    env = Environment()
    return env, Tracer(env, **kwargs)


# -- span basics ----------------------------------------------------------------


def test_root_and_children_share_a_trace():
    env, tracer = make_tracer()
    root = tracer.open_trace("request")
    child = root.child("dispatch", QUEUEING, component="fe0")
    grandchild = child.child("worker", SERVICE)
    assert root.trace_id == child.trace_id == grandchild.trace_id
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    # child() inherits the parent's component unless overridden
    assert grandchild.component == "fe0"
    assert len(tracer.trace(root.trace_id)) == 3


def test_span_times_come_from_the_sim_clock():
    env, tracer = make_tracer()
    root = tracer.open_trace("request")
    env._now = 2.5
    child = root.child("hop", SERVICE)
    env._now = 4.0
    child.finish()
    root.finish()
    assert child.start == 2.5
    assert child.end == 4.0
    assert child.duration == 1.5
    assert root.duration == 4.0


def test_finish_is_idempotent():
    env, tracer = make_tracer()
    root = tracer.open_trace("request")
    env._now = 1.0
    root.finish()
    env._now = 9.0
    root.finish()
    assert root.end == 1.0


def test_record_captures_an_elapsed_child_in_one_call():
    env, tracer = make_tracer()
    root = tracer.open_trace("request")
    env._now = 3.0
    span = root.record("wait", QUEUEING, start=1.0,
                       annotations={"bytes": 42})
    assert span.start == 1.0
    assert span.end == 3.0  # ends now
    assert span.annotations == {"bytes": 42}


def test_annotate_chains_and_merges():
    env, tracer = make_tracer()
    root = tracer.open_trace("request").annotate(url="http://x/")
    assert root.annotate(status="ok") is root
    assert root.annotations == {"url": "http://x/", "status": "ok"}


# -- sampling -------------------------------------------------------------------


def test_head_sampling_keeps_every_nth_request():
    env, tracer = make_tracer(sample_every=3)
    roots = [tracer.open_trace("request") for _ in range(9)]
    sampled = [root for root in roots if root is not None]
    assert len(sampled) == 3
    assert [roots.index(root) for root in sampled] == [0, 3, 6]
    assert tracer.requests_seen == 9
    assert tracer.requests_sampled == 3


def test_sampling_is_deterministic_not_random():
    """No RNG draw: two tracers over the same request stream sample the
    same indices."""
    _, one = make_tracer(sample_every=4)
    _, two = make_tracer(sample_every=4)
    picks_one = [one.open_trace("r") is not None for _ in range(12)]
    picks_two = [two.open_trace("r") is not None for _ in range(12)]
    assert picks_one == picks_two


def test_trace_ids_encode_the_request_index():
    env, tracer = make_tracer(sample_every=2)
    first = tracer.open_trace("request")
    tracer.open_trace("request")
    third = tracer.open_trace("request")
    assert first.trace_id == "t0000000"
    assert third.trace_id == "t0000002"


def test_sample_every_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Tracer(env, sample_every=0)


# -- the hand-off protocol ------------------------------------------------------


def test_hand_off_take_pending_round_trip():
    env, tracer = make_tracer()
    root = tracer.open_trace("request")
    tracer.hand_off(root)
    pending = tracer.take_pending()
    assert Tracer.was_handed_off(pending)
    assert pending is root
    # consumed: the next take sees no hand-off
    assert not Tracer.was_handed_off(tracer.take_pending())


def test_hand_off_of_unsampled_context_is_distinguishable():
    """Handing off None (request sampled out) is not the same as no
    hand-off at all — downstream must not open its own root."""
    env, tracer = make_tracer()
    tracer.hand_off(None)
    pending = tracer.take_pending()
    assert Tracer.was_handed_off(pending)
    assert pending is None


def test_peek_pending_does_not_consume():
    env, tracer = make_tracer()
    root = tracer.open_trace("request")
    tracer.hand_off(root)
    assert tracer.peek_pending() is root
    assert tracer.take_pending() is root  # still there for the consumer


def test_drop_pending_clears_unconsumed_hand_off():
    env, tracer = make_tracer()
    tracer.hand_off(tracer.open_trace("request"))
    tracer.drop_pending()
    assert not Tracer.was_handed_off(tracer.take_pending())


# -- queries and installation ---------------------------------------------------


def test_finished_traces_excludes_open_roots():
    env, tracer = make_tracer()
    done = tracer.open_trace("request")
    done.finish()
    tracer.open_trace("request")  # never finished
    finished = tracer.finished_traces()
    assert list(finished) == [done.trace_id]


def test_all_spans_iterates_every_trace():
    env, tracer = make_tracer()
    first = tracer.open_trace("request")
    first.child("hop", SERVICE)
    tracer.open_trace("request")
    assert len(list(tracer.all_spans())) == 3


def test_install_tracer_on_cluster_sets_env_hook():
    cluster = Cluster(seed=5)
    assert cluster.env.tracer is None  # strictly opt-in
    tracer = install_tracer(cluster, sample_every=7, label="arm")
    assert cluster.env.tracer is tracer
    assert tracer.sample_every == 7
    assert tracer.label == "arm"
