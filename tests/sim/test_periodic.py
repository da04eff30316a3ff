"""Coalesced periodic timers (Environment.periodic).

The facility replaces per-component ``while True: yield timeout(T)``
maintenance loops with shared buckets — one heap entry per (period,
phase) per interval, no matter how many callbacks ride it.  These
tests pin the contract the conversion relies on: cadence, registration
order within a tick, equivalence with process loops, cancel/defer
semantics, and bucket sharing/death.
"""

import pytest

from repro.sim.kernel import Environment


def test_periodic_fires_on_cadence():
    env = Environment()
    times = []
    env.periodic(10.0, lambda: times.append(env.now))
    env.run(until=35.0)
    assert times == [10.0, 20.0, 30.0]


def test_first_delay_zero_fires_immediately_then_on_period():
    env = Environment()
    times = []
    env.periodic(5.0, lambda: times.append(env.now), first_delay=0)
    env.run(until=12.0)
    assert times == [0.0, 5.0, 10.0]


def test_explicit_first_delay_sets_phase():
    env = Environment()
    times = []
    env.periodic(10.0, lambda: times.append(env.now), first_delay=3.0)
    env.run(until=25.0)
    assert times == [3.0, 13.0, 23.0]


def test_matches_process_loop_cadence():
    """A periodic callback sees the exact tick times a sleep-first
    process loop would, including float accumulation (now + period
    each tick, not k * period)."""
    period = 0.3  # not exactly representable: accumulation matters

    env_a = Environment()
    loop_times = []

    def loop(env):
        while True:
            yield env.timeout(period)
            loop_times.append(env.now)

    env_a.process(loop(env_a))
    env_a.run(until=10.0)

    env_b = Environment()
    timer_times = []
    env_b.periodic(period, lambda: timer_times.append(env_b.now))
    env_b.run(until=10.0)

    assert timer_times == loop_times


def test_same_phase_callbacks_share_one_bucket():
    env = Environment()
    order = []
    env.periodic(10.0, lambda: order.append("a"))
    env.periodic(10.0, lambda: order.append("b"))
    env.periodic(10.0, lambda: order.append("c"))
    assert len(env._periodic) == 1  # one bucket, one heap entry
    env.run(until=25.0)
    # registration order within each tick
    assert order == ["a", "b", "c", "a", "b", "c"]


def test_different_phases_get_separate_buckets():
    env = Environment()
    fired = []
    env.periodic(10.0, lambda: fired.append(("early", env.now)),
                 first_delay=2.0)
    env.periodic(10.0, lambda: fired.append(("late", env.now)))
    assert len(env._periodic) == 2
    env.run(until=15.0)
    assert fired == [("early", 2.0), ("late", 10.0), ("early", 12.0)]


def test_body_first_joins_steady_bucket_ahead_of_sleep_first():
    """A body-first registration (first_delay=0) fires once at now and
    then shares the now+period bucket with a sleep-first registration
    made right after it — body-first first, the order the old process
    loops produced."""
    env = Environment()
    order = []
    env.periodic(5.0, lambda: order.append(("beacon", env.now)),
                 first_delay=0)
    env.periodic(5.0, lambda: order.append(("policy", env.now)))
    assert len(env._periodic) == 1
    env.run(until=11.0)
    assert order == [("beacon", 0.0),
                     ("beacon", 5.0), ("policy", 5.0),
                     ("beacon", 10.0), ("policy", 10.0)]


def test_cancel_stops_future_ticks():
    env = Environment()
    times = []
    handle = env.periodic(1.0, lambda: times.append(env.now))
    env.run(until=3.5)
    handle.cancel()
    env.run(until=10.0)
    assert times == [1.0, 2.0, 3.0]


def test_cancel_from_inside_callback():
    env = Environment()
    times = []
    handle = None

    def tick():
        times.append(env.now)
        if len(times) == 2:
            handle.cancel()

    handle = env.periodic(1.0, tick)
    env.run(until=10.0)
    assert times == [1.0, 2.0]


def test_bucket_dies_when_all_handles_cancelled():
    env = Environment()
    a = env.periodic(1.0, lambda: None)
    b = env.periodic(1.0, lambda: None)
    a.cancel()
    b.cancel()
    env.run(until=5.0)
    assert env._periodic == {}
    assert env.peek() == float("inf")  # no zombie re-arms


def test_cancel_one_member_keeps_the_rest():
    env = Environment()
    order = []
    a = env.periodic(1.0, lambda: order.append("a"))
    env.periodic(1.0, lambda: order.append("b"))
    env.run(until=1.5)
    a.cancel()
    env.run(until=3.5)
    assert order == ["a", "b", "b", "b"]


def test_defer_skips_ticks_inside_window():
    """defer(d) suppresses ticks at times <= now + d; the cadence
    (phase) itself is untouched — the watchdog-restart pattern."""
    env = Environment()
    times = []
    handle = env.periodic(1.0, lambda: times.append(env.now))
    env.run(until=2.5)
    assert times == [1.0, 2.0]
    handle.defer(3.0)  # skip ticks at t <= 5.5: that is t=3, 4, 5
    env.run(until=8.5)
    assert times == [1.0, 2.0, 6.0, 7.0, 8.0]


def test_defer_matches_process_loop_restart_pattern():
    """The converted watchdog sleeps out tolerance = k * interval after
    acting; defer gives the identical next-check time when tolerance is
    a whole number of intervals."""
    interval, tolerance = 2.0, 6.0  # tolerance = 3 intervals
    trigger_at = 8.0

    def run_loop():
        env = Environment()
        checks = []

        def loop():
            while True:
                yield env.timeout(interval)
                checks.append(env.now)
                if env.now == trigger_at:
                    yield env.timeout(tolerance)

        env.process(loop())
        env.run(until=20.0)
        return checks

    env = Environment()
    timer_checks = []
    handle = None

    def check():
        timer_checks.append(env.now)
        if env.now == trigger_at:
            handle.defer(tolerance)

    handle = env.periodic(interval, check)
    env.run(until=20.0)
    assert timer_checks == run_loop()


def test_invalid_arguments():
    env = Environment()
    with pytest.raises(ValueError):
        env.periodic(0.0, lambda: None)
    with pytest.raises(ValueError):
        env.periodic(-1.0, lambda: None)
    with pytest.raises(ValueError):
        env.periodic(1.0, lambda: None, first_delay=-0.5)
    handle = env.periodic(1.0, lambda: None)
    with pytest.raises(ValueError):
        handle.defer(-1.0)


def test_registration_mid_run_phases_from_now():
    env = Environment()
    times = []
    env.run(until=7.0)
    env.periodic(10.0, lambda: times.append(env.now))
    env.run(until=30.0)
    assert times == [17.0, 27.0]


def test_callbacks_may_register_new_periodics():
    env = Environment()
    seen = []

    def parent():
        seen.append(("parent", env.now))
        if len(seen) == 1:
            env.periodic(1.0, lambda: seen.append(("child", env.now)))

    env.periodic(2.0, parent)
    env.run(until=4.5)
    assert seen == [("parent", 2.0), ("child", 3.0),
                    ("parent", 4.0), ("child", 4.0)]
