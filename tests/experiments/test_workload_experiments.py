"""Quick-scale validation of the workload-side experiment drivers
(Figures 5-7, cache study, economics)."""

import pytest

from repro.experiments.cache_hitrate import (
    run_cache_size_sweep,
    run_population_sweep,
)
from repro.experiments.economics import run_economics
from repro.experiments.figure5_sizes import PAPER_MEANS, run_figure5
from repro.experiments.figure6_burstiness import run_figure6
from repro.experiments.figure7_distiller import run_figure7
from repro.tacc.content import MIME_GIF, MIME_HTML, MIME_JPEG


def test_figure5_means_and_shapes_match_paper():
    result = run_figure5(n_records=20_000, seed=7)
    for mime in (MIME_HTML, MIME_GIF, MIME_JPEG):
        assert result.means[mime] == pytest.approx(
            PAPER_MEANS[mime], rel=0.2), mime
    assert 0.35 < result.gif_fraction_below_1kb < 0.65
    assert result.jpeg_fraction_below_1kb < 0.02
    assert result.shares[MIME_GIF] == pytest.approx(0.50, abs=0.03)
    rendered = result.render()
    assert "Figure 5" in rendered
    assert "3428" in rendered  # paper mean shown alongside


def test_figure6_rates_and_burstiness():
    result = run_figure6(duration_s=4 * 3600.0, seed=7)
    stats_2min = result.report[120.0]
    assert stats_2min["avg_rps"] == pytest.approx(5.8, rel=0.5)
    assert stats_2min["peak_rps"] > 1.4 * stats_2min["avg_rps"]
    # finer buckets see higher peaks (Figure 6c: 20 req/s at 1 s)
    assert result.report[1.0]["peak_rps"] > stats_2min["peak_rps"]
    # provisioning lines are ordered sensibly
    assert result.overflow_5pct_line > 0
    assert result.utilization_70pct_line > 0
    assert "Figure 6" in result.render()


def test_figure7_slope_near_8ms_per_kb():
    result = run_figure7(n_items=20_000, seed=7)
    assert result.slope_ms_per_kb == pytest.approx(8.0, rel=0.15)
    assert result.variation_ratio > 2.0  # "large variation"
    # bucket means rise with size
    means = [mean for _, mean in result.bucket_means]
    assert means[0] < means[-1]
    assert "ms/KB" in result.render()


def test_cache_size_sweep_monotone_with_plateau():
    result = run_cache_size_sweep(
        capacities_bytes=(2_000_000, 8_000_000, 32_000_000,
                          128_000_000, 512_000_000),
        n_users=300, n_requests=25_000, seed=7)
    rates = [rate for _, rate in result.sweep]
    for smaller, bigger in zip(rates, rates[1:]):
        assert bigger >= smaller - 0.01
    # plateau: the last doubling buys almost nothing
    assert rates[-1] - rates[-2] < 0.05
    # plateau level in the paper's neighbourhood (56%)
    assert 0.35 < result.plateau() < 0.75
    assert "hit rate" in result.render()


def test_population_sweep_rises_then_falls():
    result = run_population_sweep(
        populations=(10, 50, 200, 800, 3200),
        requests_per_user=50, seed=7)
    rates = [rate for _, rate in result.sweep]
    peak_index = rates.index(max(rates))
    # rises with population first (cross-user locality)...
    assert peak_index > 0
    assert rates[peak_index] > rates[0] + 0.02
    # ...then falls once working sets exceed the cache
    assert rates[-1] < rates[peak_index] - 0.02


def test_economics_report_renders():
    report = run_economics(n_users=100, n_requests=5_000, seed=7).render()
    assert "payback period" in report
    assert "byte hit rate" in report
