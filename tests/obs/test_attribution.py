"""Attribution-sweep, critical-path, and report tests over hand-built
span trees (detached spans, explicit times)."""

import pytest

from repro.obs.attribution import (
    AttributionReport,
    attribute_trace,
    build_attribution_report,
    critical_path,
    find_root,
    render_span_tree,
)
from repro.obs.trace import (
    NETWORK,
    OTHER,
    QUEUEING,
    SERVICE,
    Span,
    Tracer,
)
from repro.sim.kernel import Environment


def span(span_id, parent_id, name, category, start, end,
         component="x", trace_id="t1"):
    return Span(None, trace_id, span_id, parent_id, name, category,
                component, start, end=end)


# -- the interval sweep ---------------------------------------------------------


def test_components_partition_the_root_interval():
    spans = [
        span(1, None, "request", OTHER, 0.0, 10.0),
        span(2, 1, "wait", QUEUEING, 2.0, 5.0),
        span(3, 2, "work", SERVICE, 3.0, 4.0),
    ]
    components = attribute_trace(spans)
    # deepest covering span wins: [3,4] is service even though the
    # queueing span also covers it
    assert components[SERVICE] == pytest.approx(1.0)
    assert components[QUEUEING] == pytest.approx(2.0)
    assert components[OTHER] == pytest.approx(7.0)
    assert sum(components.values()) == pytest.approx(10.0)


def test_root_only_time_is_other():
    spans = [span(1, None, "request", OTHER, 0.0, 4.0)]
    assert attribute_trace(spans) == {OTHER: pytest.approx(4.0)}


def test_unfinished_spans_are_ignored():
    spans = [
        span(1, None, "request", OTHER, 0.0, 6.0),
        span(2, 1, "hung", SERVICE, 1.0, None),
        span(3, 1, "net", NETWORK, 2.0, 3.0),
    ]
    components = attribute_trace(spans)
    assert SERVICE not in components
    assert components[NETWORK] == pytest.approx(1.0)


def test_child_clipped_to_root_interval():
    """A child that outlives the root (e.g. recorded with a late end)
    only contributes the overlap."""
    spans = [
        span(1, None, "request", OTHER, 0.0, 5.0),
        span(2, 1, "net", NETWORK, 4.0, 9.0),
    ]
    components = attribute_trace(spans)
    assert components[NETWORK] == pytest.approx(1.0)
    assert sum(components.values()) == pytest.approx(5.0)


def test_no_finished_root_yields_empty():
    assert attribute_trace([]) == {}
    assert attribute_trace(
        [span(1, None, "request", OTHER, 0.0, None)]) == {}


def test_sibling_overlap_resolves_deterministically():
    """Two siblings covering the same instant: the later-starting,
    higher-id one wins (documented tie-break)."""
    spans = [
        span(1, None, "request", OTHER, 0.0, 10.0),
        span(2, 1, "a", QUEUEING, 1.0, 6.0),
        span(3, 1, "b", SERVICE, 3.0, 8.0),
    ]
    components = attribute_trace(spans)
    assert components[QUEUEING] == pytest.approx(2.0)  # [1,3]
    assert components[SERVICE] == pytest.approx(5.0)   # [3,8]
    assert components[OTHER] == pytest.approx(3.0)
    assert sum(components.values()) == pytest.approx(10.0)


# -- critical path --------------------------------------------------------------


def test_critical_path_hands_off_to_latest_child():
    root = span(1, None, "request", OTHER, 0.0, 10.0)
    a = span(2, 1, "a", SERVICE, 1.0, 4.0)
    b = span(3, 1, "b", NETWORK, 6.0, 9.0)
    segments = critical_path([root, a, b])
    labels = [(seg.name, left, right) for seg, left, right in segments]
    assert labels == [
        ("request", 0.0, 1.0),
        ("a", 1.0, 4.0),
        ("request", 4.0, 6.0),
        ("b", 6.0, 9.0),
        ("request", 9.0, 10.0),
    ]
    total = sum(right - left for _, left, right in segments)
    assert total == pytest.approx(root.duration)


def test_critical_path_descends_into_grandchildren():
    root = span(1, None, "request", OTHER, 0.0, 8.0)
    mid = span(2, 1, "dispatch", QUEUEING, 1.0, 7.0)
    leaf = span(3, 2, "worker", SERVICE, 3.0, 6.0)
    segments = critical_path([root, mid, leaf])
    names = [seg.name for seg, _, _ in segments]
    assert names == ["request", "dispatch", "worker", "dispatch",
                     "request"]
    total = sum(right - left for _, left, right in segments)
    assert total == pytest.approx(8.0)


def test_critical_path_skips_zero_duration_children():
    """Regression: a zero-duration child at the cursor used to stall
    the backward walk forever."""
    root = span(1, None, "request", OTHER, 0.0, 5.0)
    instant = span(2, 1, "thread-wait", QUEUEING, 5.0, 5.0)
    real = span(3, 1, "work", SERVICE, 1.0, 2.0)
    segments = critical_path([root, instant, real])
    assert all(seg.name != "thread-wait" for seg, _, _ in segments)
    total = sum(right - left for _, left, right in segments)
    assert total == pytest.approx(5.0)


def test_critical_path_empty_without_root():
    assert critical_path([]) == []


# -- rendering ------------------------------------------------------------------


def test_render_span_tree_shows_hierarchy_and_annotations():
    root = span(1, None, "request", OTHER, 0.0, 2.0)
    root.annotations["url"] = "http://x/"
    child = span(2, 1, "net", NETWORK, 0.5, 1.5, component="fe0")
    text = render_span_tree([root, child])
    lines = text.splitlines()
    assert len(lines) == 2
    assert "request [other] @x" in lines[0]
    assert "url=http://x/" in lines[0]
    assert "net [network] @fe0" in lines[1]
    # the child line is indented under the root
    assert lines[1].index("net") > lines[0].index("request")


def test_render_span_tree_handles_unfinished_root():
    root = span(1, None, "request", OTHER, 0.0, None)
    text = render_span_tree([root])
    assert "unfinished" in text


def test_render_empty_trace():
    assert render_span_tree([]) == "(empty trace)"


# -- the aggregated report ------------------------------------------------------


def trace_of(trace_id, e2e, service_s):
    return [
        span(1, None, "request", OTHER, 0.0, e2e, trace_id=trace_id),
        span(2, 1, "work", SERVICE, 0.0, service_s,
             trace_id=trace_id),
    ]


def test_report_aggregates_and_bounds_residual():
    report = AttributionReport()
    assert report.add_trace("t1", trace_of("t1", 2.0, 0.5))
    assert report.add_trace("t2", trace_of("t2", 4.0, 1.5))
    assert report.n_traces == 2
    assert report.end_to_end.count == 2
    assert report.by_category[SERVICE].total == pytest.approx(2.0)
    assert report.worst_residual <= 1e-9
    text = report.render()
    assert "2 sampled request(s)" in text
    assert "service" in text
    assert "slowest     t2" in text


def test_report_rejects_traces_without_roots():
    report = AttributionReport()
    assert not report.add_trace("t1", [])
    assert report.n_traces == 0
    assert report.render() == "latency attribution: no sampled traces"


def test_build_attribution_report_accepts_tracer_or_list():
    env = Environment()
    tracer = Tracer(env)
    root = tracer.open_trace("request")
    env._now = 1.0
    root.finish()
    single = build_attribution_report(tracer)
    many = build_attribution_report([tracer])
    assert single.n_traces == many.n_traces == 1
