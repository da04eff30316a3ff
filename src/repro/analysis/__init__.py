"""Measurement and reporting utilities.

Latency/throughput accumulators for experiment drivers, the Section 5.2
economic-feasibility model, and ASCII renderers that print tables and
figures in the shape the paper reports them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "metrics": ("LatencyStats", "summarize_outcomes"),
    "economics": ("EconomicModel",),
    "reporting": ("render_histogram", "render_series", "render_table"),
})

__all__ = [
    "EconomicModel",
    "LatencyStats",
    "render_histogram",
    "render_series",
    "render_table",
    "summarize_outcomes",
]
