"""Every paper table and figure at full scale: each :data:`CLAIMS` entry
runs its ``EXPERIMENTS`` row's ``full`` scale once, prints it (``-s``)
and asserts the paper's shape, recording the headline numbers in
``extra_info``.  ``policies`` and ``flash-crowd`` have their own tests."""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.economics import EconomicModel
from repro.experiments import EXPERIMENTS
from repro.experiments.figure5_sizes import PAPER_MEANS
from repro.tacc.content import MIME_GIF, MIME_HTML, MIME_JPEG


def figure5(result, info):
    for mime in (MIME_HTML, MIME_GIF, MIME_JPEG):
        mean, paper = result.means[mime], PAPER_MEANS[mime]
        info[f"mean_{mime}"], info[f"paper_mean_{mime}"] = round(mean), paper
        assert abs(mean - paper) < 0.2 * paper
    info["gif_below_1kb"] = round(result.gif_fraction_below_1kb, 3)
    assert 0.35 < result.gif_fraction_below_1kb < 0.65
    assert result.jpeg_fraction_below_1kb < 0.02


def figure6(result, info):
    two_minute = result.report[120.0]
    info["avg_rps_2min"] = round(two_minute["avg_rps"], 2)
    info["peak_rps_2min"] = round(two_minute["peak_rps"], 2)
    info["paper_avg_peak_2min"] = "5.8 / 12.6"
    # daily average near the paper's 5.8 req/s; peak well above average
    assert abs(two_minute["avg_rps"] - 5.8) < 2.0
    assert two_minute["peak_rps"] > 1.5 * two_minute["avg_rps"]
    # finer buckets expose higher peaks (Figure 6c)
    assert result.report[1.0]["peak_rps"] > two_minute["peak_rps"]
    for scale in (120.0, 30.0):
        assert result.report[scale]["dispersion"] > 2.0


def figure7(result, info):
    info["slope_ms_per_kb"] = round(result.slope_ms_per_kb, 2)
    info["paper_slope_ms_per_kb"] = 8.0
    assert abs(result.slope_ms_per_kb - 8.0) < 1.0
    assert result.variation_ratio > 2.0


def figure8(result, info):
    info["spawns"] = len(result.spawn_times)
    info["recovery_s"] = result.post_kill_recovery_s
    # load growth spawned several distillers before the kills
    assert len([t for t in result.spawn_times if t < result.kill_time]) >= 3
    # kills happened, replacements followed
    assert [t for t, label in result.events
            if "started" in label and t > result.kill_time]
    assert result.post_kill_recovery_s is not None
    assert result.post_kill_recovery_s < 90.0
    total = result.completed_requests + result.failed_requests
    assert result.completed_requests > 0.9 * total


def table1(result, info):
    for row in ("Load balancing", "Application layer", "Service layer",
                "Failure management", "Worker placement",
                "User profile (ACID) database", "Caching"):
        assert row in result.render()


def table2(result, info):
    info.update(per_distiller_rps=round(result.per_distiller_rps, 1),
                per_frontend_rps=round(result.per_frontend_rps, 1),
                paper_per_distiller_rps=23, paper_per_frontend_rps="70-87")
    rows = result.rows
    # linear scaling: served tracks offered at every level
    for row in rows:
        assert row.completed_rps > 0.7 * row.rate_rps, row
    assert rows[-1].n_distillers >= 5
    assert rows[-1].n_frontends >= 2
    # who saturates: distillers repeatedly, FE Ethernet at ~70-90
    saturated = " ".join(row.saturated for row in rows)
    assert "distillers" in saturated
    assert "FE Ethernet" in saturated
    assert any(50 <= row.rate_rps <= 110 for row in rows
               if "FE Ethernet" in row.saturated)
    # paper-neighbourhood unit capacities
    assert 15.0 < result.per_distiller_rps < 35.0
    assert 50.0 < result.per_frontend_rps < 95.0
    # interior SAN never the bottleneck at 100 Mb/s
    assert result.san_utilization_peak < 0.5


def cache(result, info):
    info["plateau_hit_rate"] = round(result.plateau(), 3)
    info["paper_plateau"] = 0.56
    rates = [rate for _, rate in result.sweep]
    for smaller, bigger in zip(rates, rates[1:]):
        assert bigger >= smaller - 0.01
    assert rates[-1] - rates[-2] < 0.03  # the plateau
    assert 0.40 < result.plateau() < 0.75  # paper: ~56%


def population(result, info):
    rates = [rate for _, rate in result.sweep]
    peak_index = rates.index(max(rates))
    info["peak_population"] = result.sweep[peak_index][0]
    assert 0 < peak_index < len(rates) - 1  # rises, then falls
    assert rates[-1] < rates[peak_index]


def frontend_state(result, info):
    cold, hot = result.cold, result.hot
    info["cold_mean_outstanding"] = round(cold.mean_outstanding)
    info["cold_peak_tcp"] = cold.peak_tcp_connections
    info["paper_outstanding"] = "150-350"
    # paper: 150-350 outstanding, up to 700 TCP connections at 15 req/s
    assert 100 < cold.mean_outstanding < 400
    assert cold.peak_tcp_connections < 800
    # Little's law: outstanding ~= N * T
    assert abs(cold.mean_outstanding - cold.littles_law_prediction) \
        < 0.35 * cold.littles_law_prediction
    # caching collapses front-end state by an order of magnitude
    assert hot.mean_outstanding < cold.mean_outstanding / 5


def manager(result, info):
    info["announcements_per_s"] = round(result.announcements_per_s)
    info["paper_announcements_per_s"] = 1800
    assert result.announcements_per_s > 1600
    assert result.delivery_rate > 0.9
    # beacons stayed on schedule: the manager was not overwhelmed
    assert abs(result.beacon_interval_observed_s - 0.5) < 0.1
    assert result.equivalent_request_rps == 18_000.0


def san(result, info):
    fast, slow, remedied = result.fast, result.slow, result.slow_with_utility
    info["fast_beacon_loss"] = round(fast.beacon_loss_rate, 3)
    info["slow_beacon_loss"] = round(slow.beacon_loss_rate, 3)
    # 100 Mb/s: healthy
    assert fast.beacon_loss_rate < 0.02
    assert fast.failed == 0
    # 10 Mb/s: "most of our (unreliable) multicast traffic was being dropped"
    assert slow.beacon_loss_rate > 0.5
    assert slow.p95_latency_s > fast.p95_latency_s
    # the paper's remedy: control traffic on a low-speed utility network
    assert remedied is not None
    info["utility_beacon_loss"] = round(remedied.beacon_loss_rate, 3)
    assert remedied.beacon_loss_rate < 0.02
    assert remedied.failed < slow.failed


def faults(result, info):
    info["success_rate"] = round(result.success_rate, 4)
    info["manager_restarts"] = result.manager_restarts
    assert result.success_rate > 0.9
    assert result.manager_restarts == 1
    labels = " | ".join(label for _, label in result.timeline)
    for victim in ("distiller", "manager", "front end"):
        assert f"killed {victim}" in labels


def hotbot(result, info):
    info["coverage_during"] = round(result.coverage_during, 4)
    info["paper_coverage_during"] = round(51 / 54, 4)
    assert abs(result.coverage_during - 25 / 26) < 0.02
    assert result.coverage_after_restart == 1.0
    assert result.cross_mount_coverage_during == 1.0


def hotbot_throughput(result, info):
    info["queries_per_day_M"] = round(
        result.queries_per_day_equivalent / 1e6, 2)
    info["cache_hit_fraction"] = round(result.cache_hit_fraction, 3)
    # "several million queries per day"
    assert result.queries_per_day_equivalent > 2_000_000
    assert result.served_qps > 0.9 * result.offered_qps
    assert result.p95_s < 0.25
    # the recent-searches cache is doing real work on a Zipf query mix
    assert result.cache_hit_fraction > 0.3
    assert result.incremental_pages > 50


def economics(result, info):
    model = EconomicModel()
    info["payback_months_at_50pct"] = round(model.payback_months(), 2)
    assert "payback period" in result.render()
    # at the paper's assumed 50% byte hit rate: ~2 months
    assert 1.0 < model.payback_months() < 3.0


def endtoend(result, info):
    info["mean_reduction"] = round(result.mean_reduction, 2)
    info["paper_reduction"] = "3-5x"
    # the paper's 3-5x band (Figure 3's 6.7x per image, diluted by the mix)
    assert 2.5 < result.mean_reduction < 6.0
    assert result.distilled_mean_s < result.original_mean_s
    # the modem bank carries far fewer bytes (HTML cannot shrink)
    assert result.bytes_over_modems_distilled < \
        result.bytes_over_modems_original / 2


CLAIMS = {"figure5": figure5, "figure6": figure6, "figure7": figure7,
          "figure8": figure8, "table1": table1, "table2": table2,
          "cache": cache, "population": population, "manager": manager,
          "frontend-state": frontend_state, "san": san, "faults": faults,
          "hotbot": hotbot, "hotbot-throughput": hotbot_throughput,
          "economics": economics, "endtoend": endtoend}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_experiment(benchmark, name):
    result = run_once(benchmark, EXPERIMENTS[name].run, 1997)
    print("\n" + result.render())
    CLAIMS[name](result, benchmark.extra_info)
