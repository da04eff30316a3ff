"""Tests for harvest/yield availability accounting."""

from dataclasses import dataclass
from typing import Any, Optional

import pytest

from repro.analysis.metrics import (
    harvest_yield_series,
    yield_recovery_time,
)


@dataclass
class FakeResponse:
    status: str
    path: str = ""


@dataclass
class FakeOutcome:
    submitted_at: float
    ok: bool
    response: Optional[Any] = None


def outcome(at, status=None, ok=True, path=""):
    return FakeOutcome(at, ok,
                       FakeResponse(status, path) if status else None)


def test_series_buckets_by_submission_time():
    outcomes = [
        outcome(0.1, "ok"), outcome(0.4, "ok"),
        outcome(1.2, "ok"), outcome(1.3, None, ok=False),
    ]
    series = harvest_yield_series(outcomes, bucket_s=1.0)
    assert len(series) == 2
    assert series[0]["submitted"] == 2
    assert series[0]["yield"] == 1.0
    assert series[1]["submitted"] == 2
    assert series[1]["answered"] == 1
    assert series[1]["yield"] == 0.5


def test_degraded_answers_hit_harvest_not_yield():
    outcomes = [outcome(0.0, "ok"), outcome(0.1, "fallback")]
    series = harvest_yield_series(outcomes, bucket_s=1.0)
    assert series[0]["yield"] == 1.0
    assert series[0]["harvest"] == 0.5
    assert series[0]["degraded"] == 1


def test_error_replies_count_against_yield():
    """A shed request or an error page answers nothing: it must reduce
    yield like a timeout, not inflate it as a 'degraded answer'."""
    outcomes = [outcome(0.0, "ok"), outcome(0.1, "error")]
    series = harvest_yield_series(outcomes, bucket_s=1.0)
    assert series[0]["answered"] == 1
    assert series[0]["yield"] == 0.5
    assert series[0]["harvest"] == 1.0


def test_shed_replies_get_their_own_column():
    """A shed is a yield loss the admission controller *chose*: it must
    count against yield like any error, but land in the ``shed`` column
    so overload reports can separate deliberate load-shedding from
    degraded answers and from plain failures."""
    outcomes = [
        outcome(0.0, "ok"),
        outcome(0.1, "error", ok=True, path="shed"),
        outcome(0.2, "error", ok=True, path="shed-priority"),
        outcome(0.3, "error", ok=True, path="shed-deadline"),
        outcome(0.4, "error", ok=True),            # generic error page
        outcome(0.5, None, ok=False),              # timeout
        outcome(0.6, "fallback"),                  # degraded answer
    ]
    series = harvest_yield_series(outcomes, bucket_s=1.0)
    row = series[0]
    assert row["shed"] == 3                 # only the shed-* paths
    assert row["answered"] == 2             # the ok and the fallback
    assert row["degraded"] == 1             # fallback: harvest loss
    assert row["yield"] == pytest.approx(2 / 7)
    assert row["harvest"] == pytest.approx(1 / 2)


def test_empty_input_and_validation():
    assert harvest_yield_series([], bucket_s=1.0) == []
    with pytest.raises(ValueError):
        harvest_yield_series([outcome(0.0, "ok")], bucket_s=0.0)


def test_gap_buckets_are_filled():
    outcomes = [outcome(0.0, "ok"), outcome(3.5, "ok")]
    series = harvest_yield_series(outcomes, bucket_s=1.0)
    assert len(series) == 4
    assert series[1]["submitted"] == 0
    assert series[1]["yield"] == 1.0  # nothing asked, nothing failed


def test_recovery_time_finds_sustained_return():
    outcomes = (
        [outcome(t + 0.5, "ok") for t in range(5)]            # healthy
        + [outcome(t + 0.5, None, ok=False) for t in range(5, 10)]
        + [outcome(t + 0.5, "ok") for t in range(10, 15)]     # recovered
    )
    series = harvest_yield_series(outcomes, bucket_s=1.0)
    recovery = yield_recovery_time(series, heal_time=9.0)
    assert recovery == pytest.approx(1.5)  # bucket starting at 10.5s


def test_recovery_none_when_it_never_returns():
    outcomes = [outcome(float(t), None, ok=False) for t in range(10)]
    series = harvest_yield_series(outcomes, bucket_s=1.0)
    assert yield_recovery_time(series, heal_time=2.0) is None


def test_recovery_resets_on_relapse():
    outcomes = (
        [outcome(0.5, "ok")]
        + [outcome(1.5, None, ok=False)]
        + [outcome(2.5, "ok")]
        + [outcome(3.5, None, ok=False)]   # relapse after brief return
        + [outcome(4.5, "ok"), outcome(5.5, "ok")]
    )
    series = harvest_yield_series(outcomes, bucket_s=1.0)
    recovery = yield_recovery_time(series, heal_time=1.0)
    assert recovery == pytest.approx(3.5)  # the 4.5s bucket sticks
