"""Workload substrate: synthetic stand-in for the Berkeley dialup trace.

The paper's measurements rest on a 1.5-month, ~20-million-request HTTP
trace of the UC Berkeley Home IP population.  We cannot have that trace;
this package generates synthetic traces calibrated to every statistic the
paper publishes about it:

* MIME mix: GIF 50 %, HTML 22 %, JPEG 18 % (Section 4.1);
* mean content sizes: HTML 5131 B, GIF 3428 B, JPEG 12070 B (Figure 5),
  with the GIF distribution's two plateaus (icons under 1 KB, photos
  above) and the JPEG fall-off below 1 KB;
* daily-cycle request rates with bursts at every time scale
  (Figure 6: 5.8 req/s average, 12.6 req/s peak over 2-minute buckets);
* Zipf-like document popularity, which drives the cache hit-rate study.

The playback engine reproduces the paper's load generator: "the engine
can generate requests at a constant (and dynamically tunable) rate, or it
can faithfully play back a trace according to the timestamps in the
trace file."
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "distributions": (
        "MimeMix", "SizeModel", "default_mime_mix", "default_size_models"),
    "trace": ("Trace", "TraceRecord", "load_trace", "save_trace"),
    "tracegen": ("DocumentUniverse", "TraceGenerator"),
    "playback": ("PlaybackEngine", "RequestOutcome"),
    "burstiness": (
        "bucket_counts", "burstiness_report", "index_of_dispersion",
        "overflow_line_for_fraction", "utilization_line"),
})

__all__ = [
    "DocumentUniverse",
    "MimeMix",
    "PlaybackEngine",
    "RequestOutcome",
    "SizeModel",
    "Trace",
    "TraceGenerator",
    "TraceRecord",
    "bucket_counts",
    "burstiness_report",
    "default_mime_mix",
    "default_size_models",
    "index_of_dispersion",
    "load_trace",
    "overflow_line_for_fraction",
    "save_trace",
    "utilization_line",
]
