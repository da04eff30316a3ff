"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import (
    Condition,
    Environment,
    Event,
    Interrupt,
    Queue,
    QueueFull,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    times = []

    def proc(env):
        yield env.timeout(5.0)
        times.append(env.now)
        yield env.timeout(2.5)
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [5.0, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_time_stops_and_sets_clock():
    env = Environment()
    ticks = []

    def ticker(env):
        while True:
            yield env.timeout(10.0)
            ticks.append(env.now)

    env.process(ticker(env))
    env.run(until=35.0)
    assert ticks == [10.0, 20.0, 30.0]
    assert env.now == 35.0


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"
    assert env.now == 3.0


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 3.0, "c"))
    env.process(proc(env, 1.0, "a"))
    env.process(proc(env, 2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_by_schedule_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_process_waits_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(4.0)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        return value + 1

    assert env.run(until=env.process(parent(env))) == 43


def test_event_succeed_delivers_value():
    env = Environment()
    event = env.event()

    def waiter(env):
        value = yield event
        return value

    def firer(env):
        yield env.timeout(1.0)
        event.succeed("payload")

    env.process(firer(env))
    assert env.run(until=env.process(waiter(env))) == "payload"


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()

    def waiter(env):
        try:
            yield event
        except RuntimeError as error:
            return f"caught {error}"

    def firer(env):
        yield env.timeout(1.0)
        event.fail(RuntimeError("boom"))

    env.process(firer(env))
    assert env.run(until=env.process(waiter(env))) == "caught boom"


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_unhandled_process_exception_propagates_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("exploded")

    env.process(bad(env))
    with pytest.raises(ValueError, match="exploded"):
        env.run()


def test_waiting_parent_receives_child_exception():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("child error")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError:
            return "handled"

    assert env.run(until=env.process(parent(env))) == "handled"


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            log.append("overslept")
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))

    proc = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(5.0)
        proc.interrupt("crash")

    env.process(killer(env))
    env.run()
    assert log == [("interrupted", 5.0, "crash")]


def test_interrupted_process_not_resumed_by_stale_event():
    """After an interrupt, the originally awaited event must not resume
    the process a second time."""
    env = Environment()
    resumes = []

    def sleeper(env):
        try:
            yield env.timeout(10.0)
            resumes.append("timeout")
        except Interrupt:
            resumes.append("interrupt")
            yield env.timeout(50.0)
            resumes.append("after")

    proc = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(5.0)
        proc.interrupt()

    env.process(killer(env))
    env.run()
    assert resumes == ["interrupt", "after"]


def test_two_interrupts_in_one_instant_leave_no_stale_resume():
    """The second interrupt is delivered while the process already
    waits on the event it yielded after the first; that event must not
    resume the frame again when it fires (it used to, feeding its value
    to whatever the process was waiting on by then)."""
    env = Environment()
    log = []

    def sleeper(env):
        waits = iter((("second", 10.0), ("third", 30.0)))
        wait = ("first", 100.0)
        while wait is not None:
            try:
                got = yield env.timeout(wait[1], value=wait[0])
                log.append(("woke", got, env.now))
                wait = None
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, env.now))
                wait = next(waits)

    proc = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(5.0)
        proc.interrupt("one")
        proc.interrupt("two")

    env.process(killer(env))
    env.run()
    assert log == [("interrupted", "one", 5.0), ("interrupted", "two", 5.0),
                   ("woke", "third", 35.0)]


def test_interrupt_before_first_run_detaches_first_wait():
    """A process interrupted in the instant it was created starts,
    yields its first event, and only then gets the interrupt: that
    first event must be let go of too."""
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(10.0)
            log.append("timeout")
        except Interrupt:
            log.append("interrupt")
            got = yield env.timeout(50.0, value="after")
            log.append(got)

    env.process(sleeper(env)).interrupt()
    env.run()
    assert log == ["interrupt", "after"]


def test_cannot_interrupt_dead_process():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(9.0, value="slow")
        result = yield Condition(env, [fast, slow], 1)
        return list(result.values())

    assert env.run(until=env.process(proc(env))) == ["fast"]


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env):
        first = env.timeout(1.0, value=1)
        second = env.timeout(2.0, value=2)
        result = yield env.all_of([first, second])
        return sorted(result.values())

    assert env.run(until=env.process(proc(env))) == [1, 2]
    assert env.now == 2.0


def test_queue_fifo_order():
    env = Environment()
    queue = env.queue()
    received = []

    def consumer(env):
        for _ in range(3):
            item = yield queue.get()
            received.append(item)

    def producer(env):
        yield env.timeout(1.0)
        for item in ("a", "b", "c"):
            queue.put_nowait(item)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert received == ["a", "b", "c"]


def test_queue_get_before_put_blocks():
    env = Environment()
    queue = env.queue()
    times = []

    def consumer(env):
        item = yield queue.get()
        times.append((env.now, item))

    def producer(env):
        yield env.timeout(7.0)
        queue.put_nowait("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(7.0, "late")]


def test_queue_capacity_enforced():
    env = Environment()
    queue = env.queue(capacity=2)
    queue.put_nowait(1)
    queue.put_nowait(2)
    with pytest.raises(QueueFull):
        queue.put_nowait(3)
    assert queue.try_put(3) is False
    assert queue.length == 2


def test_queue_length_tracks_backlog():
    env = Environment()
    queue = env.queue()
    for item in range(5):
        queue.put_nowait(item)
    assert queue.length == 5
    assert len(queue) == 5
    queue.clear()
    assert queue.length == 0


def test_queue_item_not_lost_when_waiter_interrupted():
    """An item handed to a queue must survive the interruption of a
    process that was blocked on get()."""
    env = Environment()
    queue = env.queue()
    received = []

    def victim(env):
        try:
            yield queue.get()
            received.append("victim got item")
        except Interrupt:
            pass

    def survivor(env):
        item = yield queue.get()
        received.append(("survivor", item))

    victim_proc = env.process(victim(env))

    def scenario(env):
        yield env.timeout(1.0)
        victim_proc.interrupt()
        yield env.timeout(1.0)
        env.process(survivor(env))
        yield env.timeout(1.0)
        queue.put_nowait("the-item")

    env.process(scenario(env))
    env.run()
    assert received == [("survivor", "the-item")]


def test_yielding_non_event_raises_typeerror_in_process():
    env = Environment()

    def bad(env):
        try:
            yield "not an event"
        except TypeError:
            return "typed"

    assert env.run(until=env.process(bad(env))) == "typed"


def test_yielding_another_environments_event_raises():
    env, other = Environment(), Environment()

    def stray(env):
        yield other.timeout(1.0)

    env.process(stray(env))
    with pytest.raises(SimulationError, match="different environment"):
        env.run()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(12.0)
    assert env.peek() == 12.0
    env2 = Environment()
    assert env2.peek() == float("inf")
