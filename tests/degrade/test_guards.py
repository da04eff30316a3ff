"""Overload-amplification guards: the retry-budget token bucket and
the origin circuit breaker's full state machine."""

import pytest

from repro.degrade.guards import CircuitBreaker, RetryBudget


# -- retry budget -------------------------------------------------------------

def test_budget_validates_parameters():
    with pytest.raises(ValueError):
        RetryBudget(ratio=-0.1, cap=10.0)
    with pytest.raises(ValueError):
        RetryBudget(ratio=0.1, cap=0.5)


def test_budget_starts_full_so_cold_stub_can_retry():
    budget = RetryBudget(ratio=0.0, cap=2.0)
    assert budget.try_spend()
    assert budget.try_spend()
    assert not budget.try_spend()
    assert budget.spent == 2
    assert budget.denials == 1


def test_retries_capped_to_a_fraction_of_fresh_traffic():
    """With ratio 0.25, a drained bucket allows one retry per four
    first attempts, no matter how many failures pile up."""
    budget = RetryBudget(ratio=0.25, cap=1.0)
    assert budget.try_spend()  # the initial allowance
    granted = 0
    for _ in range(100):
        budget.earn()
        if budget.try_spend():
            granted += 1
    assert granted == 25
    assert budget.earned == 100
    assert budget.denials == 75


def test_earning_never_exceeds_the_cap():
    budget = RetryBudget(ratio=5.0, cap=3.0)
    for _ in range(10):
        budget.earn()
    assert budget.tokens == 3.0
    assert budget.try_spend() and budget.try_spend() \
        and budget.try_spend()
    assert not budget.try_spend()


# -- circuit breaker ----------------------------------------------------------

def make_breaker(threshold=3, cooldown=10.0, slow=2.0):
    clock = {"now": 0.0}
    breaker = CircuitBreaker(lambda: clock["now"], threshold,
                             cooldown, slow)
    return clock, breaker


def test_breaker_validates_parameters():
    with pytest.raises(ValueError):
        CircuitBreaker(lambda: 0.0, 0, 10.0, 2.0)
    with pytest.raises(ValueError):
        CircuitBreaker(lambda: 0.0, 3, 0.0, 2.0)
    with pytest.raises(ValueError):
        CircuitBreaker(lambda: 0.0, 3, 10.0, -1.0)


def test_closed_breaker_admits_and_success_resets_the_count():
    _, breaker = make_breaker(threshold=3)
    for _ in range(2):
        assert breaker.allow()
        breaker.record(0.1, ok=False)
    breaker.record(0.1, ok=True)  # interleaved success: not consecutive
    for _ in range(2):
        breaker.record(0.1, ok=False)
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.opens == 0


def test_consecutive_failures_trip_the_breaker():
    _, breaker = make_breaker(threshold=3)
    for _ in range(3):
        breaker.record(0.1, ok=False)
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.opens == 1
    assert not breaker.allow()
    assert breaker.short_circuits == 1


def test_slow_success_counts_as_failure():
    """A dependency answering in 6 s under a 2 s budget is down in
    every way that matters to the thread waiting on it."""
    _, breaker = make_breaker(threshold=2, slow=2.0)
    breaker.record(6.0, ok=True)
    breaker.record(2.0, ok=True)  # exactly the budget: still too slow
    assert breaker.state == CircuitBreaker.OPEN
    breaker2_clock, breaker2 = make_breaker(threshold=2, slow=2.0)
    breaker2.record(1.9, ok=True)
    breaker2.record(1.9, ok=True)
    assert breaker2.state == CircuitBreaker.CLOSED


def test_cooldown_admits_exactly_one_half_open_probe():
    clock, breaker = make_breaker(threshold=1, cooldown=10.0)
    breaker.record(0.1, ok=False)
    assert breaker.state == CircuitBreaker.OPEN
    clock["now"] = 9.9
    assert not breaker.allow()
    clock["now"] = 10.0
    assert breaker.allow()  # the probe
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.probes == 1
    assert not breaker.allow()  # probe in flight: everyone else waits
    assert breaker.short_circuits == 2


def test_probe_success_closes_the_breaker():
    clock, breaker = make_breaker(threshold=1, cooldown=5.0)
    breaker.record(0.1, ok=False)
    clock["now"] = 5.0
    assert breaker.allow()
    breaker.record(0.1, ok=True)
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allow()


def test_probe_failure_reopens_and_restarts_the_cooldown():
    clock, breaker = make_breaker(threshold=1, cooldown=5.0)
    breaker.record(0.1, ok=False)
    clock["now"] = 5.0
    assert breaker.allow()
    breaker.record(0.1, ok=False)
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.opens == 2
    clock["now"] = 9.9  # cooldown restarted at t=5
    assert not breaker.allow()
    clock["now"] = 10.0
    assert breaker.allow()


def test_summary_reports_state_and_counters():
    clock, breaker = make_breaker(threshold=1, cooldown=5.0)
    breaker.record(0.1, ok=False)
    breaker.allow()
    assert (breaker.state, breaker.opens, breaker.short_circuits,
            breaker.probes) == ("open", 1, 1, 0)
