"""Kernel edge-semantics regression tests.

Pins the behaviours the fast-path rewrite must preserve — and the three
event-semantics bugs it fixed: ``run(until=...)`` on an already-failed
processed event, stale queue getters surviving interrupts, and
``Timeout`` reporting ``triggered`` before its delay elapsed.
"""

import pytest

from repro.sim.kernel import (
    Environment,
    Interrupt,
    SimulationError,
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


# -- interrupt racing a queue hand-off -------------------------------------


def test_interrupt_racing_queue_handoff_loses_item_but_not_the_sim():
    """A put hands the item to a blocked getter; before the getter's
    process resumes, it is interrupted (URGENT beats the NORMAL
    hand-off).  The item is lost with the victim — SIGKILL semantics,
    the sender's timeout is the detector — and the simulation must
    neither crash nor resume the victim with the item."""
    env = Environment()
    queue = env.queue()
    log = []

    def victim(env):
        try:
            item = yield queue.get()
            log.append(("victim got", item))
        except Interrupt:
            log.append("interrupted")

    proc = env.process(victim(env))

    def scenario(env):
        yield env.timeout(1.0)
        queue.put_nowait("the-item")  # hand-off scheduled (NORMAL)
        proc.interrupt()              # interrupt scheduled (URGENT)

    env.process(scenario(env))
    env.run()
    assert log == ["interrupted"]
    assert queue.length == 0  # the in-flight hand-off died with the victim
    assert len(queue._getters) == 0
