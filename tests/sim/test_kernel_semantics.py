"""Kernel edge-semantics regression tests.

Pins the behaviours the fast-path rewrite must preserve — and the three
event-semantics bugs it fixed: ``run(until=...)`` on an already-failed
processed event, stale queue getters surviving interrupts, and
``Timeout`` reporting ``triggered`` before its delay elapsed.
"""

import pytest

from repro.sim.kernel import (
    TIMED_OUT,
    Environment,
    Interrupt,
    SimulationError,
    TimedWait,
)


# -- run(until=event) on a failed event ------------------------------------


def _run_to_failure(env):
    """Create, fail, and fully process a process event; return it."""

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("exploded")

    proc = env.process(bad(env))

    def watcher(env):
        try:
            yield proc
        except ValueError:
            pass

    env.process(watcher(env))
    env.run()
    assert proc.processed and not proc.ok
    return proc


def test_run_until_already_failed_event_raises():
    """A processed *failed* event must raise from run(), not be returned
    as if the exception object were a value (mirrors the StopSimulation
    path's _ok check)."""
    env = Environment()
    proc = _run_to_failure(env)
    with pytest.raises(ValueError, match="exploded"):
        env.run(until=proc)


def test_run_until_already_succeeded_event_returns_value():
    env = Environment()

    def good(env):
        yield env.timeout(1.0)
        return "fine"

    proc = env.process(good(env))
    env.run()
    assert env.run(until=proc) == "fine"


# -- stale getters pruned on interrupt -------------------------------------


def test_interrupted_getter_pruned_from_queue():
    env = Environment()
    queue = env.queue()

    def victim(env):
        try:
            yield queue.get()
        except Interrupt:
            pass

    proc = env.process(victim(env))

    def killer(env):
        yield env.timeout(1.0)
        proc.interrupt()

    env.process(killer(env))
    env.run()
    assert len(queue._getters) == 0


def test_getters_bounded_under_interrupt_heavy_campaign():
    """A chaos kill loop that repeatedly interrupts blocked consumers
    must not grow ``_getters`` without bound (no put ever arrives to
    lazily skip the stale entries)."""
    env = Environment()
    queue = env.queue()
    rounds = 200

    def victim(env):
        try:
            yield queue.get()
        except Interrupt:
            pass

    def kill_loop(env):
        for _ in range(rounds):
            proc = env.process(victim(env))
            yield env.timeout(1.0)
            proc.interrupt()
            yield env.timeout(1.0)

    env.process(kill_loop(env))
    env.run()
    assert len(queue._getters) <= 1

    # the queue still works after the campaign
    received = []

    def survivor(env):
        item = yield queue.get()
        received.append(item)

    env.process(survivor(env))
    queue.put_nowait("alive")
    env.run()
    assert received == ["alive"]


# -- Timeout pending/triggered distinction ---------------------------------


def test_timeout_is_pending_until_delay_elapses():
    env = Environment()
    timeout = env.timeout(5.0)
    assert not timeout.triggered
    assert not timeout.processed
    with pytest.raises(SimulationError):
        _ = timeout.value  # not readable before the clock reaches it
    env.run(until=timeout)
    assert env.now == 5.0
    assert timeout.triggered
    assert timeout.processed
    assert timeout.value is None


def test_timeout_cannot_be_triggered_manually():
    env = Environment()
    timeout = env.timeout(5.0)
    with pytest.raises(SimulationError):
        timeout.succeed("nope")
    with pytest.raises(SimulationError):
        timeout.fail(RuntimeError("nope"))
    # the manual attempts must not have corrupted the schedule
    fired = []

    def waiter(env):
        value = yield timeout
        fired.append((env.now, value))

    env.process(waiter(env))
    env.run()
    assert fired == [(5.0, None)]


def test_timeout_fix_preserves_scheduling_order():
    env = Environment()
    order = []

    def proc(env, tag, delay):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, "b", 2.0))
    env.process(proc(env, "a", 1.0))
    env.process(proc(env, "a2", 1.0))
    env.run()
    assert order == ["a", "a2", "b"]


# -- URGENT vs NORMAL at the same timestamp --------------------------------


def test_urgent_interrupt_beats_earlier_normal_event():
    """An interrupt (URGENT) scheduled *after* a normal event at the
    same timestamp is still delivered first: priority outranks
    scheduling sequence within a timestamp."""
    env = Environment()
    log = []
    gate = env.event()

    def normal_waiter(env):
        yield gate
        log.append("normal")

    def sleeper(env):
        try:
            yield env.timeout(10.0)
        except Interrupt:
            log.append("interrupt")

    env.process(normal_waiter(env))
    sleeping = env.process(sleeper(env))

    def scenario(env):
        yield env.timeout(5.0)
        gate.succeed()        # NORMAL at t=5, scheduled first
        sleeping.interrupt()  # URGENT at t=5, scheduled second


    env.process(scenario(env))
    env.run()
    assert log == ["interrupt", "normal"]


# -- all_of with duplicate events ------------------------------------------


def test_all_of_with_duplicate_events_fires_once():
    env = Environment()

    def proc(env):
        timeout = env.timeout(1.0)
        result = yield env.all_of([timeout, timeout])
        return timeout, result

    timeout, result = env.run(until=env.process(proc(env)))
    assert env.now == 1.0
    assert result == {timeout: None}


# -- a getter let go in its grant instant hands the item on ---------------


def test_interrupt_in_the_immediate_grant_instant_returns_the_item():
    """``get()`` on a non-empty queue grants the head item at once; an
    interrupt that lands before the grant is processed must put the item
    back, or a one-slot pool (a node's CPU) never hands it out again."""
    env = Environment()
    queue = env.queue()
    queue.put_nowait("slot")
    log = []

    def victim(env):
        try:
            item = yield queue.get()
            log.append(("victim got", item))
        except Interrupt:
            log.append("interrupted")

    def later(env):
        item = yield queue.get()
        log.append(("later got", item, env.now))

    def scenario(env):
        yield env.timeout(1.0)
        proc = env.process(victim(env))
        yield env.timeout(0)   # the victim runs and is granted the slot
        proc.interrupt()       # URGENT: before the grant is processed
        yield env.timeout(1.0)
        env.process(later(env))

    env.process(scenario(env))
    env.run()
    assert log == ["interrupted", ("later got", "slot", 2.0)]
    assert queue.length == 0 and len(queue._getters) == 0


def test_interrupt_racing_queue_handoff_hands_the_item_on():
    """A put hands the item to a blocked getter; before the getter's
    process resumes, it is interrupted (URGENT beats the NORMAL
    hand-off).  The victim is not resumed with the item, and the item
    goes to the next live getter, else back to the head of the queue."""
    env = Environment()
    queue = env.queue()
    log = []

    def victim(env):
        try:
            item = yield queue.get()
            log.append(("victim got", item))
        except Interrupt:
            log.append("interrupted")

    def survivor(env):
        item = yield queue.get()
        log.append(("survivor got", item))

    proc = env.process(victim(env))
    env.process(survivor(env))

    def scenario(env):
        yield env.timeout(1.0)
        queue.put_nowait("first")   # to the victim (NORMAL)
        queue.put_nowait("second")  # to the survivor
        proc.interrupt()            # URGENT: the victim lets go of "first"
        yield env.timeout(1.0)
        queue.put_nowait("third")

    env.process(scenario(env))
    env.run()
    # the survivor was granted "second" before "first" came back, so
    # "first" waits at the head of the queue, ahead of "third"
    assert log == ["interrupted", ("survivor got", "second")]
    assert list(queue._items) == ["first", "third"]
    assert len(queue._getters) == 0


def test_timed_get_whose_timer_wins_the_grant_instant_keeps_the_item():
    """A put at the deadline's instant grants the item to a timed get;
    the timer, a heap entry due now, is processed before the grant in
    the normal lane and abandons the get.  The item goes back."""
    env = Environment()
    queue = env.queue()
    log = []

    def putter(env):
        yield env.timeout(5.0)      # scheduled before the deadline timer
        queue.put_nowait("the-item")

    def waiter(env):
        outcome = yield TimedWait(env, queue.get(), 5.0)
        log.append("timed out" if outcome is TIMED_OUT else outcome)

    env.process(putter(env))
    env.process(waiter(env))
    env.run()
    assert log == ["timed out"]
    assert list(queue._items) == ["the-item"]
    assert len(queue._getters) == 0
