"""Quick-scale validation of the cluster-side experiment drivers
(Figure 8, Tables 1-2, manager capacity, SAN saturation, faults,
HotBot degradation)."""

import pytest

from repro.core.config import SNSConfig
from repro.experiments.fault_timeline import run_fault_timeline
from repro.experiments.figure8_selftuning import run_figure8
from repro.experiments.hotbot_degradation import run_hotbot_degradation
from repro.experiments.manager_capacity import run_manager_capacity
from repro.experiments.san_saturation import run_san_saturation
from repro.experiments.table1_comparison import run_table1
from repro.experiments.table2_scalability import run_table2


def test_figure8_spawns_and_recovers():
    result = run_figure8(duration_s=200.0, kill_at_s=120.0, seed=5,
                         peak_rate_rps=40.0)
    # on-demand first spawn plus load-driven spawns
    assert len(result.spawn_times) >= 3
    # the kills appear in the timeline and replacements follow
    kill_events = [t for t, label in result.events if "killed" in label]
    assert len(kill_events) == 2
    post_kill_starts = [t for t, label in result.events
                        if "started" in label and t > result.kill_time]
    assert post_kill_starts, "manager should spawn replacements"
    # the system kept serving
    assert result.completed_requests > 0.9 * (
        result.completed_requests + result.failed_requests)
    assert "Figure 8" in result.render()


def test_figure8_queue_crosses_threshold_before_spawn():
    # the kills are due after the run: no kill happens
    result = run_figure8(duration_s=150.0, kill_at_s=1e9, seed=6,
                         peak_rate_rps=40.0)
    # at least one sampled queue exceeded H before the 2nd spawn
    assert any(value >= 8.0
               for points in result.series.values()
               for _, value in points)


def test_table2_linear_scaling_shape():
    result = run_table2(rates=(15, 35, 55, 75, 95),
                        step_duration_s=20.0, seed=5)
    rows = result.rows
    # resources grow with load
    assert rows[-1].n_distillers > rows[0].n_distillers
    # served tracks offered within 25% at every level (linear scaling)
    for row in rows:
        assert row.completed_rps > 0.7 * row.rate_rps, row
    # distiller throughput in the paper's neighbourhood
    assert 12.0 < result.per_distiller_rps < 40.0
    # SAN never saturates at 100 Mb/s
    assert result.san_utilization_peak < 0.5
    assert "Table 2" in result.render()


def test_table2_frontend_becomes_bottleneck():
    config = SNSConfig(spawn_threshold=10.0, spawn_damping_s=10.0,
                       dispatch_timeout_s=8.0,
                       frontend_connection_overhead_s=0.014)
    result = run_table2(rates=(40, 80, 120), step_duration_s=20.0,
                        seed=5, config=config)
    saturated = " ".join(row.saturated for row in result.rows)
    assert "FE Ethernet" in saturated
    assert result.rows[-1].n_frontends > 1
    assert result.per_frontend_rps < 95.0


def test_manager_capacity_handles_1800_announcements():
    result = run_manager_capacity(n_distillers=900, duration_s=10.0)
    assert result.announcements_per_s == pytest.approx(1800.0, rel=0.1)
    # ~0.95: the staggered source start-up shaves half an interval of
    # reports off the fixed-window count; nothing is actually dropped
    assert result.delivery_rate > 0.9
    # beacons stayed on schedule (manager not overwhelmed)
    assert result.beacon_interval_observed_s == pytest.approx(0.5,
                                                              rel=0.2)
    assert result.equivalent_request_rps == 18_000.0
    assert "1800" in result.render()


def test_san_saturation_drops_beacons_on_slow_network():
    result = run_san_saturation(rate_rps=80.0, duration_s=30.0, seed=5)
    assert result.fast.beacon_loss_rate < 0.02
    assert result.slow.beacon_loss_rate > 0.3
    assert result.slow.san_utilization > result.fast.san_utilization
    # the slow SAN visibly hurts service
    assert (result.slow.failed + result.slow.dispatch_timeouts
            > result.fast.failed + result.fast.dispatch_timeouts)
    assert "SAN saturation" in result.render()


def test_fault_timeline_high_availability():
    result = run_fault_timeline(rate_rps=15.0, seed=5)
    assert result.success_rate > 0.9
    assert result.manager_restarts == 1
    assert result.worker_failures_detected >= 0
    labels = " | ".join(label for _, label in result.timeline)
    assert "killed distiller" in labels
    assert "killed manager" in labels
    assert "killed front end" in labels
    assert "incarnation 2" in labels
    assert "Fault-tolerance timeline" in result.render()


def test_hotbot_degradation_matches_paper_fraction():
    result = run_hotbot_degradation(n_nodes=26, n_docs=2600, seed=5)
    assert result.coverage_before == 1.0
    # 54M -> ~51M is ~94.4%
    assert result.coverage_during == pytest.approx(25 / 26, abs=0.02)
    assert result.coverage_after_restart == 1.0
    assert result.cross_mount_coverage_during == 1.0
    assert "54" in result.render() or "graceful" in result.render()


def test_table1_renders_all_components():
    table = run_table1().render()
    for component in ("Load balancing", "Application layer",
                      "Failure management", "Caching"):
        assert component in table
    assert "TranSend" in table and "HotBot" in table
