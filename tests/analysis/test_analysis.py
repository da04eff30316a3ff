"""Tests for metrics, economics, and reporting."""

import pytest

from repro.analysis.economics import EconomicModel
from repro.analysis.metrics import (
    LatencyStats,
    summarize_outcomes,
)
from repro.analysis.reporting import (
    render_histogram,
    render_series,
    render_table,
)


# -- metrics -------------------------------------------------------------------

def test_latency_stats_basic():
    stats = LatencyStats().extend([0.1, 0.2, 0.3, 0.4, 0.5])
    assert stats.count == 5
    assert stats.mean == pytest.approx(0.3)
    assert stats.p50 == pytest.approx(0.3)
    assert stats.maximum == 0.5
    assert stats.percentile(0.0) == 0.1
    assert stats.percentile(1.0) == 0.5


def test_latency_stats_from_samples_and_total():
    stats = LatencyStats.from_samples([0.3, 0.1, 0.2])
    assert stats.count == 3
    assert stats.total == pytest.approx(0.6)
    assert stats.p50 == pytest.approx(0.2)
    assert LatencyStats.from_samples([]).maximum == 0.0


def test_latency_stats_merge_pools_exact_percentiles():
    left = LatencyStats.from_samples([0.1, 0.2])
    right = LatencyStats.from_samples([0.3, 0.4])
    assert left.merge(right) is left
    assert left.count == 4
    # pooled percentiles are exact, identical to one flat accumulator
    flat = LatencyStats.from_samples([0.1, 0.2, 0.3, 0.4])
    for fraction in (0.0, 0.25, 0.5, 0.95, 1.0):
        assert left.percentile(fraction) == \
            pytest.approx(flat.percentile(fraction))
    # merging leaves the donor untouched
    assert right.count == 2


def test_latency_stats_merge_empty_is_noop():
    stats = LatencyStats.from_samples([0.5])
    stats.merge(LatencyStats())
    assert stats.count == 1
    assert stats.maximum == 0.5


def test_latency_percentile_interpolates():
    stats = LatencyStats().extend([0.0, 1.0])
    assert stats.percentile(0.25) == pytest.approx(0.25)


def test_latency_stats_validation():
    stats = LatencyStats()
    with pytest.raises(ValueError):
        stats.add(-1.0)
    with pytest.raises(ValueError):
        stats.percentile(2.0)
    assert stats.mean == 0.0
    assert stats.p95 == 0.0


def test_summarize_outcomes():
    class Outcome:
        def __init__(self, ok, latency):
            self.ok = ok
            self.latency = latency

    outcomes = [Outcome(True, 0.1), Outcome(True, 0.3),
                Outcome(False, None)]
    summary = summarize_outcomes(outcomes)
    assert summary["ok"] == 2
    assert summary["failed"] == 1
    assert summary["success_rate"] == pytest.approx(2 / 3)
    assert summary["mean"] == pytest.approx(0.2)


# -- economics --------------------------------------------------------------------

def test_economics_defaults_match_paper_shape():
    model = EconomicModel()
    report = model.report()
    assert report["subscribers"] == 15000
    # $5000 / 15000 users / 12 months
    assert report["cost_per_subscriber_per_month_usd"] == \
        pytest.approx(0.0278, abs=0.001)
    # savings ~$3000/month -> payback "in only two months"
    assert report["monthly_bandwidth_savings_usd"] == \
        pytest.approx(3000.0)
    assert 1.0 < report["payback_months"] < 3.0


def test_economics_savings_scale_with_hit_rate():
    low = EconomicModel(cache_byte_hit_rate=0.25)
    high = EconomicModel(cache_byte_hit_rate=0.5)
    assert low.monthly_bandwidth_savings() == \
        pytest.approx(high.monthly_bandwidth_savings() / 2)


def test_economics_no_savings_never_pays_back():
    model = EconomicModel(cache_byte_hit_rate=0.0)
    assert model.payback_months() == float("inf")


def test_economics_validation():
    with pytest.raises(ValueError):
        EconomicModel(server_cost_usd=0)
    with pytest.raises(ValueError):
        EconomicModel(cache_byte_hit_rate=2.0)


# -- reporting ----------------------------------------------------------------------

def test_render_table_alignment():
    table = render_table(
        ["Requests/Second", "# Front Ends", "# Distillers"],
        [["0-24", 1, 1], ["25-47", 1, 2]],
        title="Table 2",
    )
    lines = table.splitlines()
    assert lines[0] == "Table 2"
    assert "Requests/Second" in lines[1]
    assert lines[2].startswith("---")
    assert "0-24" in lines[3]


def test_render_table_validates_width():
    with pytest.raises(ValueError):
        render_table(["a", "b"], [[1]])


def test_render_histogram_scales_bars():
    out = render_histogram([("small", 1.0), ("big", 10.0)], width=10)
    lines = out.splitlines()
    assert lines[1].count("#") == 10
    assert lines[0].count("#") == 1
    assert render_histogram([], title="t").endswith("(empty)")


def test_render_series_plots_points():
    points = [(0.0, 0.0), (50.0, 10.0), (100.0, 5.0)]
    out = render_series(points, height=5, title="queues")
    assert "queues" in out
    assert out.count("*") == 3
    assert "t=0s" in out
