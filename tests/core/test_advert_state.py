"""Unit tests for AdvertState.effective_queue — the Section 4.5
oscillation fix (queue-slope extrapolation between beacons plus the
count of requests this front end itself sent since the last report)."""

import pytest

from repro.core.manager_stub import AdvertState
from repro.core.messages import WorkerAdvert


def make_advert(queue_avg, report_at):
    return WorkerAdvert(
        worker_name="w0", worker_type="test-worker", node_name="node0",
        stub=None, queue_avg=queue_avg, last_report_at=report_at)


def test_single_report_returns_raw_queue():
    state = AdvertState(make_advert(3.0, report_at=0.0), now=0.0)
    assert state.effective_queue(5.0, estimate_deltas=True) == 3.0
    assert state.effective_queue(5.0, estimate_deltas=False) == 3.0


def test_slope_extrapolates_between_reports():
    state = AdvertState(make_advert(2.0, report_at=0.0), now=0.0)
    state.refresh(make_advert(4.0, report_at=1.0), now=1.0)
    # slope = (4 - 2) / (1 - 0) = 2/s; one second past the last report
    assert state.effective_queue(2.0, estimate_deltas=True) == \
        pytest.approx(6.0)
    # the ablation switch ignores the slope entirely
    assert state.effective_queue(2.0, estimate_deltas=False) == 4.0


def test_negative_slope_clamps_at_zero():
    state = AdvertState(make_advert(6.0, report_at=0.0), now=0.0)
    state.refresh(make_advert(2.0, report_at=1.0), now=1.0)
    # slope -4/s: two seconds out the raw estimate is 2 - 8 = -6
    assert state.effective_queue(3.0, estimate_deltas=True) == 0.0


def test_sent_since_report_adds_local_dispatches():
    state = AdvertState(make_advert(1.0, report_at=0.0), now=0.0)
    state.sent_since_report = 3
    assert state.effective_queue(0.5, estimate_deltas=True) == 4.0
    # ...but only when delta estimation is on (the paper's pre-fix shape)
    assert state.effective_queue(0.5, estimate_deltas=False) == 1.0


def test_newer_report_resets_sent_counter():
    state = AdvertState(make_advert(1.0, report_at=0.0), now=0.0)
    state.sent_since_report = 3
    state.refresh(make_advert(2.0, report_at=1.0), now=1.0)
    assert state.sent_since_report == 0
    assert state.slope == 1.0   # (2.0 - 1.0) / (1.0 - 0.0)


def test_duplicate_beacon_keeps_sent_counter_and_slope_basis():
    """The same load report re-broadcast in the next beacon must not
    reset the local-dispatch count or shift the slope window."""
    state = AdvertState(make_advert(1.0, report_at=0.0), now=0.0)
    state.sent_since_report = 3
    duplicate = make_advert(1.0, report_at=0.0)  # same last_report_at
    state.refresh(duplicate, now=0.5)
    assert state.sent_since_report == 3
    assert state.received_at == 0.0      # slope basis unchanged
    assert state.advert is duplicate     # but the advert is refreshed
