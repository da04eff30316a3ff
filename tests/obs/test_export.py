"""Chrome trace_event export/import round-trip tests."""

import io
import json

import pytest

from repro.obs.attribution import attribute_trace
from repro.obs.export import (
    chrome_trace_events,
    export_chrome_trace,
    load_chrome_trace,
)
from repro.obs.trace import NETWORK, SERVICE, Tracer
from repro.sim.kernel import Environment


def build_tracer(label="arm", offset=0.0):
    env = Environment(initial_time=offset)
    tracer = Tracer(env, label=label)
    root = tracer.open_trace("request", url="http://x/")
    env._now = offset + 0.010
    child = root.child("net", NETWORK, component="fe0")
    env._now = offset + 0.030
    child.annotate(bytes=512).finish()
    env._now = offset + 0.100
    root.finish()
    return tracer


def test_events_carry_timestamps_in_microseconds():
    tracer = build_tracer()
    events = chrome_trace_events(tracer)
    complete = [event for event in events if event["ph"] == "X"]
    assert len(complete) == 2
    root_event = next(e for e in complete if e["name"] == "request")
    assert root_event["ts"] == 0.0
    assert root_event["dur"] == 100_000.0  # 0.1s in us
    child_event = next(e for e in complete if e["name"] == "net")
    assert child_event["ts"] == 10_000.0
    assert child_event["args"]["bytes"] == 512


def test_metadata_names_processes_and_threads():
    tracer = build_tracer(label="cluster-1")
    events = chrome_trace_events(tracer)
    metas = [event for event in events if event["ph"] == "M"]
    names = {(event["name"], event["args"]["name"]) for event in metas}
    assert ("process_name", "cluster-1") in names
    assert ("thread_name", "client") in names
    assert ("thread_name", "fe0") in names


def test_unfinished_spans_skipped_unless_requested():
    env = Environment()
    tracer = Tracer(env)
    root = tracer.open_trace("request")
    root.child("hung", SERVICE)
    env._now = 1.0
    root.finish()
    assert sum(1 for e in chrome_trace_events(tracer)
               if e["ph"] == "X") == 1


def test_export_returns_event_count_and_writes_valid_json():
    tracer = build_tracer()
    buffer = io.StringIO()
    count = export_chrome_trace(tracer, buffer)
    assert count == 2
    document = json.loads(buffer.getvalue())
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"]["producer"] == "repro.obs"
    assert len(document["traceEvents"]) >= count


def test_round_trip_preserves_tree_and_annotations():
    tracer = build_tracer()
    buffer = io.StringIO()
    export_chrome_trace(tracer, buffer)
    buffer.seek(0)
    traces = load_chrome_trace(buffer)
    assert len(traces) == 1
    spans = next(iter(traces.values()))
    by_name = {span.name: span for span in spans}
    root, child = by_name["request"], by_name["net"]
    assert child.parent_id == root.span_id
    assert root.annotations == {"url": "http://x/"}
    assert child.annotations == {"bytes": 512}
    assert child.component == "fe0"
    assert child.start == pytest.approx(0.010)
    assert child.duration == pytest.approx(0.020)
    # a reloaded trace attributes identically to the live one
    live = attribute_trace(tracer.trace(root.trace_id))
    reloaded = attribute_trace(spans)
    assert set(live) == set(reloaded)
    for category, seconds in live.items():
        assert abs(reloaded[category] - seconds) < 1e-9


def test_colliding_trace_ids_across_tracers_stay_separate():
    """Trace ids are per-tracer counters, so two experiment arms both
    emit t0000000; the loader must not merge them into one tree."""
    arms = [build_tracer(label="cluster-1"),
            build_tracer(label="cluster-2", offset=5.0)]
    buffer = io.StringIO()
    export_chrome_trace(arms, buffer)
    buffer.seek(0)
    traces = load_chrome_trace(buffer)
    assert len(traces) == 2
    assert set(traces) == {"t0000000@cluster-1",
                           "t0000000@cluster-2"}
    for spans in traces.values():
        assert len(spans) == 2  # each arm's own root + child, unmixed


def test_export_to_file_path(tmp_path):
    tracer = build_tracer()
    path = tmp_path / "trace.json"
    count = export_chrome_trace(tracer, str(path))
    assert count == 2
    traces = load_chrome_trace(str(path))
    assert len(traces) == 1
