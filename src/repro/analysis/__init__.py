"""Measurement and reporting utilities.

Latency/throughput accumulators for experiment drivers, the Section 5.2
economic-feasibility model, and ASCII renderers that print tables and
figures in the shape the paper reports them.
"""

from repro.analysis.metrics import (
    LatencyStats,
    summarize_outcomes,
)
from repro.analysis.economics import EconomicModel
from repro.analysis.reporting import (
    render_histogram,
    render_series,
    render_table,
)

__all__ = [
    "EconomicModel",
    "LatencyStats",
    "render_histogram",
    "render_series",
    "render_table",
    "summarize_outcomes",
]
