"""Causal request tracing and latency attribution (``repro.obs``).

The SNS monitor (Section 3.1.7) sees component-level state — beacons,
queue averages, silences — but cannot say *why* one request took 3.5
seconds.  This package adds the missing per-request visibility: a
:class:`~repro.obs.trace.TraceContext` threaded from front-end ingress
across every hop (cache probe, dispatch, SAN transfer, worker queue and
service, origin fetch) produces a **span tree** per sampled request with
sim-clock timestamps; on top of it sit a critical-path extractor, a
latency-attribution report that decomposes end-to-end latency into
queueing / service / network / cache-miss components (the
machine-checked version of Figure 7), and a Chrome ``trace_event``
exporter so runs open in ``chrome://tracing`` / Perfetto.

Tracing is strictly opt-in.  With no tracer installed (the default)
every instrumentation site is a single ``is None`` check: no events are
scheduled, no RNG streams are touched, and all experiment outputs are
bit-identical to an untraced run.  Even when enabled, the tracer only
*reads* the simulation clock — it draws no random numbers and never
perturbs event ordering, so traced and untraced runs of the same seed
produce identical measurements.

Not to be confused with ``repro.workload.trace`` / ``python -m repro
trace``, which handle *HTTP workload traces* (request logs to replay);
this package is about *request tracing* (causal spans within one
request).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "attribution": (
        "CATEGORIES", "AttributionReport", "attribute_trace",
        "build_attribution_report", "critical_path", "render_span_tree"),
    "export": ("export_chrome_trace", "load_chrome_trace"),
    "runtime": (
        "absorb_tracer_states", "capture_traces", "reset_capture",
        "tracing_settings"),
    "trace": ("Span", "Tracer", "install_tracer"),
})

__all__ = [
    "AttributionReport",
    "CATEGORIES",
    "Span",
    "Tracer",
    "absorb_tracer_states",
    "attribute_trace",
    "build_attribution_report",
    "capture_traces",
    "critical_path",
    "export_chrome_trace",
    "install_tracer",
    "load_chrome_trace",
    "render_span_tree",
    "reset_capture",
    "tracing_settings",
]
