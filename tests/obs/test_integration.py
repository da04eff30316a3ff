"""End-to-end tracing tests: the capture hook, zero perturbation, and
the 1%-sum acceptance criterion over a real experiment run."""

import pytest

from repro.experiments import run_endtoend
from repro.obs import capture_traces, tracing_settings
from repro.obs.attribution import (
    attribute_trace,
    build_attribution_report,
    critical_path,
    find_root,
)
from repro.sim.cluster import Cluster


N_REQUESTS = 40
SEED = 1997


def test_clusters_are_untraced_by_default():
    assert tracing_settings() is None
    cluster = Cluster(seed=1)
    assert cluster.env.tracer is None


def test_capture_traces_arms_every_new_cluster():
    with capture_traces(sample_every=3) as tracers:
        assert tracing_settings() == {"sample_every": 3}
        first = Cluster(seed=1)
        second = Cluster(seed=2)
    assert len(tracers) == 2
    assert first.env.tracer is tracers[0]
    assert second.env.tracer is tracers[1]
    assert tracers[0].label == "cluster-1"
    assert tracers[1].label == "cluster-2"
    assert tracing_settings() is None  # disarmed on exit


def test_capture_traces_rejects_nesting_and_bad_rate():
    with capture_traces():
        with pytest.raises(RuntimeError):
            with capture_traces():
                pass
    with pytest.raises(ValueError):
        with capture_traces(sample_every=0):
            pass


def test_tracing_does_not_perturb_the_experiment():
    """The zero-perturbation guarantee, measured where it matters: the
    same seed renders the identical result with tracing on and off."""
    untraced = run_endtoend(n_requests=N_REQUESTS, seed=SEED).render()
    with capture_traces() as tracers:
        traced = run_endtoend(n_requests=N_REQUESTS, seed=SEED).render()
    assert traced == untraced
    assert any(tracer.requests_sampled for tracer in tracers)


def test_sampled_components_sum_within_one_percent():
    """The acceptance criterion: per sampled request, the category
    components sum to the measured end-to-end latency within 1%."""
    with capture_traces(sample_every=2) as tracers:
        run_endtoend(n_requests=N_REQUESTS, seed=SEED)
    checked = 0
    for tracer in tracers:
        for trace_id, spans in tracer.finished_traces().items():
            root = find_root(spans)
            components = attribute_trace(spans)
            if root is None or not components or root.duration == 0:
                continue
            residual = abs(sum(components.values()) - root.duration)
            assert residual <= 0.01 * root.duration, trace_id
            checked += 1
    assert checked >= 10


def test_traces_cover_the_request_path_hops():
    with capture_traces() as tracers:
        run_endtoend(n_requests=N_REQUESTS, seed=SEED)
    names = {span.name for tracer in tracers
             for span in tracer.all_spans()}
    for expected in ("request", "frontend", "netstack", "service",
                     "cache-lookup", "origin-fetch", "dispatch",
                     "san-transfer", "worker-service", "modem"):
        assert expected in names, expected
    categories = {span.category for tracer in tracers
                  for span in tracer.all_spans()}
    assert {"queueing", "service", "network", "cache", "origin",
            "client"} <= categories


def test_critical_path_terminates_and_partitions_every_trace():
    with capture_traces(sample_every=4) as tracers:
        run_endtoend(n_requests=N_REQUESTS, seed=SEED)
    checked = 0
    for tracer in tracers:
        for trace_id, spans in tracer.finished_traces().items():
            root = find_root(spans)
            if root is None or root.duration == 0:
                continue
            segments = critical_path(spans)
            total = sum(right - left for _, left, right in segments)
            assert total == pytest.approx(root.duration), trace_id
            checked += 1
    assert checked >= 5


def test_report_over_both_arms():
    with capture_traces(sample_every=2) as tracers:
        run_endtoend(n_requests=N_REQUESTS, seed=SEED)
    report = build_attribution_report(tracers)
    assert report.n_traces >= 10
    assert report.worst_residual <= 0.01
    text = report.render()
    assert "end-to-end" in text
    assert "components sum to e2e" in text


def test_sampling_reduces_stored_traces_not_results():
    with capture_traces(sample_every=1) as full:
        everything = run_endtoend(n_requests=N_REQUESTS,
                                  seed=SEED).render()
    with capture_traces(sample_every=10) as sparse:
        sampled = run_endtoend(n_requests=N_REQUESTS,
                               seed=SEED).render()
    assert everything == sampled  # sampling never changes the sim
    stored_full = sum(len(t.spans) for t in full)
    stored_sparse = sum(len(t.spans) for t in sparse)
    assert 0 < stored_sparse < stored_full
