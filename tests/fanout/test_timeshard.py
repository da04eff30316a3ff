"""Time-sharded replay: window planning, the per-window unit, and the
serial-vs-sharded drift contract."""

import pytest

from repro.fanout.timeshard import (
    DriftReport,
    ReplaySpec,
    WindowResult,
    drift_check,
    replay_serial,
    replay_sharded,
    run_window,
    window_edges,
)

SPEC = ReplaySpec(duration_s=24.0, mean_rate_rps=200.0, seed=42)


# -- window planning ---------------------------------------------------------


def test_window_edges_snap_to_whole_seconds():
    assert window_edges(100.0, 4) == [0.0, 25.0, 50.0, 75.0, 100.0]
    assert window_edges(10.0, 3) == [0.0, 3.0, 7.0, 10.0]


def test_window_edges_cover_exactly_without_overlap():
    for duration, n in ((100.0, 7), (5.0, 2), (3600.0, 16)):
        edges = window_edges(duration, n)
        assert edges[0] == 0.0 and edges[-1] == duration
        assert len(edges) == n + 1
        assert all(b > a for a, b in zip(edges, edges[1:]))


def test_window_edges_short_trace_falls_back_to_fractional():
    # snapping 1.0/3 and 2.0/3 to whole seconds would collapse windows
    edges = window_edges(1.0, 3)
    assert edges == pytest.approx([0.0, 1.0 / 3, 2.0 / 3, 1.0])


def test_window_edges_validation():
    with pytest.raises(ValueError):
        window_edges(0.0, 2)
    with pytest.raises(ValueError):
        window_edges(10.0, 0)


# -- the per-window unit -----------------------------------------------------


def test_run_window_rejects_out_of_range_windows():
    for start, end in ((-1.0, 5.0), (5.0, 5.0), (8.0, 4.0),
                       (0.0, 25.0)):
        with pytest.raises(ValueError, match="window"):
            run_window(SPEC, start, end)


def test_run_window_drains_all_in_flight():
    window = run_window(SPEC, 0.0, SPEC.duration_s)
    assert window.submitted > 0
    assert window.completed == window.submitted
    assert window.failed == 0
    # the drain runs past the last arrival until its reply lands
    assert window.sim_end >= SPEC.duration_s - 1.0


def test_run_window_counts_only_its_own_window():
    whole = run_window(SPEC, 0.0, SPEC.duration_s)
    left = run_window(SPEC, 0.0, 10.0)
    right = run_window(SPEC, 10.0, SPEC.duration_s)
    assert left.submitted + right.submitted == whole.submitted
    assert left.completed + right.completed == whole.completed


# -- the drift contract ------------------------------------------------------


def test_sharded_replay_matches_serial_in_process():
    serial = replay_serial(SPEC)
    sharded = replay_sharded(SPEC, jobs=1, n_windows=3)
    report = drift_check(serial, sharded.merged)
    assert isinstance(report, DriftReport)
    assert report.ok, "\n".join(report.checks)
    assert sharded.merged.submitted == serial.submitted
    assert sharded.merged.completed == serial.completed
    assert len(sharded.windows) == 3


def test_sharded_replay_across_worker_processes():
    serial = replay_serial(SPEC)
    sharded = replay_sharded(SPEC, jobs=2)
    report = drift_check(serial, sharded.merged)
    assert report.ok, "\n".join(report.checks)
    assert len(sharded.windows) == 2
    assert len(sharded.window_elapsed_s) == 2


def test_more_windows_than_jobs():
    serial = replay_serial(SPEC)
    sharded = replay_sharded(SPEC, jobs=2, n_windows=5)
    assert drift_check(serial, sharded.merged).ok
    assert len(sharded.windows) == 5
    # windows come back in trace order regardless of completion order
    starts = [window.start_s for window in sharded.windows]
    assert starts == sorted(starts)


def test_odd_window_widths_preserve_counts():
    serial = replay_serial(SPEC)
    for n_windows in (2, 3, 7):
        sharded = replay_sharded(SPEC, jobs=1, n_windows=n_windows)
        assert sharded.merged.submitted == serial.submitted, n_windows
        assert sharded.merged.completed == serial.completed, n_windows


def test_zero_warmup_still_merges_counts_exactly():
    spec = ReplaySpec(duration_s=24.0, mean_rate_rps=200.0, seed=42,
                      warmup_s=0.0)
    serial = replay_serial(spec)
    sharded = replay_sharded(spec, jobs=1, n_windows=4)
    # counts are exact by construction even with no warm lead-in;
    # only latency needs the warm-up (and the tolerance)
    assert sharded.merged.submitted == serial.submitted
    assert sharded.merged.completed == serial.completed


# -- drift_check semantics ---------------------------------------------------


def _window(submitted=100, completed=100, failed=0, latency_sum=10.0):
    return WindowResult(start_s=0.0, end_s=10.0, submitted=submitted,
                        completed=completed, failed=failed,
                        latency_sum=latency_sum, latency_min=0.01,
                        latency_max=0.5, max_in_flight=4, n_events=500,
                        sim_end=10.0)


def test_drift_check_flags_count_mismatch():
    report = drift_check(_window(), _window(submitted=99,
                                            completed=99))
    assert not report.ok
    assert any("MISMATCH" in line for line in report.checks)


def test_drift_check_latency_tolerance():
    serial = _window(latency_sum=10.0)
    within = _window(latency_sum=10.4)   # +4% mean
    beyond = _window(latency_sum=11.0)   # +10% mean
    assert drift_check(serial, within, latency_tolerance=0.05).ok
    report = drift_check(serial, beyond, latency_tolerance=0.05)
    assert not report.ok
    assert any("DRIFT" in line for line in report.checks)
    assert report.mean_latency_rel_diff == pytest.approx(0.10)


def test_drift_check_handles_zero_completions():
    empty = _window(submitted=0, completed=0, latency_sum=0.0)
    assert drift_check(empty, empty).ok
