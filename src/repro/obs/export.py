"""Chrome ``trace_event`` JSON export for span trees.

The output follows the Trace Event Format (the ``traceEvents`` array of
``"ph": "X"`` complete events) understood by ``chrome://tracing`` and
by Perfetto's legacy importer (ui.perfetto.dev → "Open trace file").
Each tracer becomes one *process* row (pid), each component within it
one *thread* row (tid), so the Perfetto timeline groups spans the same
way the cluster does: front ends, worker stubs, caches, origin, client.

Timestamps are sim-clock seconds scaled to microseconds (the format's
unit).  Every event's ``args`` carries the trace id, span id, parent
span id, and category, which is enough for :func:`load_chrome_trace`
to rebuild the span trees losslessly (round-trip is tested).
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, Optional, Union

from repro.obs.trace import OTHER, Span, Tracer

_US_PER_S = 1_000_000.0


def _as_tracer_list(tracers: Union[Tracer, Iterable[Tracer]]
                    ) -> List[Tracer]:
    if isinstance(tracers, Tracer):
        return [tracers]
    return list(tracers)


def chrome_trace_events(tracers: Union[Tracer, Iterable[Tracer]]
                        ) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for one or many tracers (finished spans
    only)."""
    events: List[Dict[str, Any]] = []
    for pid, tracer in enumerate(_as_tracer_list(tracers), start=1):
        process_name = tracer.label or f"tracer-{pid}"
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": process_name},
        })
        tids: Dict[str, int] = {}
        for trace_id in sorted(tracer.spans):
            for span in tracer.spans[trace_id]:
                if span.end is None:
                    continue
                tid = tids.get(span.component)
                if tid is None:
                    tid = len(tids) + 1
                    tids[span.component] = tid
                    events.append({
                        "ph": "M", "name": "thread_name",
                        "pid": pid, "tid": tid,
                        "args": {"name": span.component},
                    })
                args: Dict[str, Any] = {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "category": span.category,
                }
                if span.annotations:
                    args.update({
                        str(key): value for key, value
                        in span.annotations.items()})
                events.append({
                    "ph": "X",
                    "name": span.name,
                    "cat": span.category,
                    "pid": pid,
                    "tid": tid,
                    "ts": span.start * _US_PER_S,
                    "dur": (span.end - span.start) * _US_PER_S,
                    "args": args,
                })
    return events


def export_chrome_trace(tracers: Union[Tracer, Iterable[Tracer]],
                        out: Union[str, IO[str]]) -> int:
    """Write a Chrome trace_event JSON file; returns the event count
    (metadata events excluded)."""
    events = chrome_trace_events(tracers)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "clock": "sim-seconds-as-us",
        },
    }
    if hasattr(out, "write"):
        json.dump(document, out, indent=1)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    return sum(1 for event in events if event["ph"] == "X")


def load_chrome_trace(source: Union[str, IO[str]]
                      ) -> Dict[str, List[Span]]:
    """Rebuild ``{trace_id: [spans]}`` from an exported trace file.

    The returned spans are detached (``span.tracer is None``) — good
    for attribution and rendering, not for opening new children.

    Trace ids are per-tracer counters, so a file holding several
    tracers (e.g. the two arms of the end-to-end experiment) can carry
    the same trace id under different pids.  Grouping is by
    ``(pid, trace_id)``; when that makes an id ambiguous, the returned
    key is suffixed with the process name (``t0000005@cluster-2``).
    """
    if hasattr(source, "read"):
        document = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    events = document.get("traceEvents", document)
    thread_names: Dict[Any, str] = {}
    process_names: Dict[Any, str] = {}
    for event in events:
        if event.get("ph") != "M":
            continue
        if event.get("name") == "thread_name":
            key = (event.get("pid"), event.get("tid"))
            thread_names[key] = str(
                event.get("args", {}).get("name", "?"))
        elif event.get("name") == "process_name":
            process_names[event.get("pid")] = str(
                event.get("args", {}).get("name", "?"))
    grouped: Dict[Any, List[Span]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        trace_id = args.pop("trace_id", None)
        if trace_id is None:
            continue
        span_id = args.pop("span_id")
        parent_id = args.pop("parent_id", None)
        category = args.pop("category", event.get("cat", OTHER))
        start = event["ts"] / _US_PER_S
        component = thread_names.get(
            (event.get("pid"), event.get("tid")), "?")
        span = Span(None, trace_id, span_id, parent_id,
                    event.get("name", "?"), category, component, start,
                    end=start + event.get("dur", 0.0) / _US_PER_S,
                    annotations=args or None)
        grouped.setdefault((event.get("pid"), trace_id),
                           []).append(span)
    pids_per_id: Dict[str, int] = {}
    for pid, trace_id in grouped:
        pids_per_id[trace_id] = pids_per_id.get(trace_id, 0) + 1
    traces: Dict[str, List[Span]] = {}
    for (pid, trace_id), spans in grouped.items():
        if pids_per_id[trace_id] > 1:
            suffix = process_names.get(pid, f"pid{pid}")
            traces[f"{trace_id}@{suffix}"] = spans
        else:
            traces[trace_id] = spans
    return traces
