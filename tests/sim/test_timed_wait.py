"""The timed wait against the composition it replaced.

Until ``TimedWait`` every deadline on the request path was
``timer = env.timeout(d); yield env.any_of([x, timer])`` — a generic
``Condition`` over two events whose losing timer sat in the heap until
it was due.  That composition is kept here as the reference
(:func:`composed_wait`): over generated schedules the primitive must
resume the same waiters in the same order at the same instants with the
same values and exceptions, and leave ``env._seq`` where the composition
left it.  What it may differ in is what the composition could not do:
a cancelled timer is not an event, so ``run()`` to exhaustion ends at
the last live one, ``peek()`` never reports it and ``step()`` never
delivers it.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import kernel
from repro.sim.kernel import (TIMED_OUT, Condition, Environment, Interrupt,
                              SimulationError, TimedWait)

# -- old and new, behind one signature ---------------------------------------------


def composed_wait(env, event, delay):
    """What the five call sites did before the primitive existed."""
    timer = env.timeout(delay)
    outcome = yield Condition(env, [event, timer], 1)
    return outcome[event] if event in outcome else TIMED_OUT


def timed_wait(env, event, delay):
    return (yield TimedWait(env, event, delay))


# -- generated schedules -----------------------------------------------------------

HORIZON = 10.0
N_REPLIES = 3
QUEUE = N_REPLIES  # a waiter's target: a reply's index, or the queue

#: zero; below the clock's resolution at t = 1 (1 + d == 1); and values
#: that make replies, deadlines, starts and kills collide on an instant
delays = st.sampled_from((0.0, 5e-324, 1e-17, 0.25, 0.5, 0.5, 1.0, 1.0, 2.0))

programs = st.fixed_dictionaries({
    "initial_time": st.sampled_from((0.0, 1.0)),
    # what becomes of each reply, and whether somebody else listens too
    "replies": st.lists(
        st.tuples(st.sampled_from(("succeed", "fail", "never")), delays,
                  st.booleans()),
        min_size=N_REPLIES, max_size=N_REPLIES),
    "puts": st.lists(delays, max_size=3),
    # each waiter starts, waits twice on its target (the second wait
    # often finds it already processed) and may be interrupted
    "waiters": st.lists(
        st.fixed_dictionaries({
            "start": delays, "target": st.integers(0, QUEUE),
            "first": delays, "second": delays,
            "kill_at": st.none() | delays}),
        min_size=1, max_size=6),
})


def play(wait, program, drive):
    """Run ``program`` with ``wait`` as its deadline; return the log of
    every resume: who, what, when (to the bit) and ``env._seq``."""
    env = Environment(program["initial_time"])
    log = []
    queue = env.queue()
    replies = [env.event() for _ in range(N_REPLIES)]

    def note(*what):
        log.append(what + (env.now.hex(), env._seq))

    for index, (fate, at, observed) in enumerate(program["replies"]):
        reply = replies[index]
        if observed:
            reply.callbacks.append(
                lambda _e, index=index: note("observer", index))
        if fate == "succeed":
            env.schedule_call(at, lambda _e, reply=reply, index=index:
                              reply.succeed(f"value{index}"))
        elif fate == "fail":
            env.schedule_call(at, lambda _e, reply=reply, index=index:
                              reply.fail(RuntimeError(f"error{index}")))
    for index, at in enumerate(program["puts"]):
        env.schedule_call(
            at, lambda _e, index=index: queue.put_nowait(f"item{index}"))

    def body(name, spec):
        try:
            yield env.timeout(spec["start"])
            for deadline in (spec["first"], spec["second"]):
                target = queue.get() if spec["target"] == QUEUE \
                    else replies[spec["target"]]
                try:
                    value = yield from wait(env, target, deadline)
                except RuntimeError as error:
                    note(name, "raised", str(error))
                else:
                    note(name, "timed out" if value is TIMED_OUT else value)
        except Interrupt as interrupt:
            # whatever the abandoned wait still does must not reach us
            note(name, "interrupted", interrupt.cause)
            yield env.timeout(spec["second"])
            note(name, "slept")

    for index, spec in enumerate(program["waiters"]):
        process = env.process(body(f"w{index}", spec))
        if spec["kill_at"] is not None:
            env.schedule_call(
                spec["kill_at"], lambda _e, process=process, index=index:
                process.is_alive and process.interrupt(f"kill{index}"))

    while True:
        try:
            drive(env)
            break
        except RuntimeError as error:
            # a reply failed with nobody listening: the same reply, at
            # the same place in the order, under either wait
            note("unhandled", str(error))
    log.append(("end", len(queue), env._seq))
    return log


def run_whole(env):
    env.run(until=HORIZON)


def run_stepwise(env):
    while env.peek() != float("inf"):
        env.step()


def waiter(target, first, second=0.0, start=0.0, kill_at=None):
    return {"start": start, "target": target, "first": first,
            "second": second, "kill_at": kill_at}


HAND_WRITTEN = [
    # the reply wins; the second wait finds it processed
    {"initial_time": 0.0, "puts": [],
     "replies": [("succeed", 0.5, False)] + [("never", 0.0, False)] * 2,
     "waiters": [waiter(0, 2.0, second=2.0)]},
    # the timer wins, the sole-observer reply then fails: not unhandled
    {"initial_time": 0.0, "puts": [],
     "replies": [("fail", 1.0, False)] + [("never", 0.0, False)] * 2,
     "waiters": [waiter(0, 0.5, second=0.25)]},
    # the failure wins, twice (pending, then already processed), while a
    # reply nobody waits on fails unhandled
    {"initial_time": 0.0, "puts": [],
     "replies": [("fail", 0.5, True), ("fail", 0.25, False),
                 ("never", 0.0, False)],
     "waiters": [waiter(0, 2.0, second=1.0)]},
    # two waiters on one reply, deadline and reply on one instant, sub-ulp
    {"initial_time": 1.0, "puts": [],
     "replies": [("succeed", 0.5, False)] + [("never", 0.0, False)] * 2,
     "waiters": [waiter(0, 0.5), waiter(0, 1e-17, second=2.0),
                 waiter(0, 2.0, start=0.25)]},
    # queue getters: one is fed, one times out and must be pruned so the
    # late item waits for the next getter; waiters killed mid-wait
    {"initial_time": 0.0, "puts": [0.25, 1.0],
     "replies": [("never", 0.0, False)] * 3,
     "waiters": [waiter(QUEUE, 0.5, second=0.25),
                 waiter(QUEUE, 0.5, second=2.0),
                 waiter(QUEUE, 2.0, second=1.0, start=1.0, kill_at=2.0),
                 waiter(0, 2.0, second=0.5, kill_at=0.25)]},
]


def same_as_the_composition(program):
    expected = play(composed_wait, program, run_whole)
    assert play(timed_wait, program, run_whole) == expected
    assert play(timed_wait, program, run_stepwise) == expected
    return expected


@settings(max_examples=300, deadline=None)
@given(programs)
@example(HAND_WRITTEN[0])
@example(HAND_WRITTEN[1])
@example(HAND_WRITTEN[2])
@example(HAND_WRITTEN[3])
@example(HAND_WRITTEN[4])
def test_timed_wait_resumes_as_the_composition_did(program):
    same_as_the_composition(program)


@settings(max_examples=100, deadline=None)
@given(programs)
def test_so_it_does_when_every_cancellation_compacts(program):
    floor, ratio = kernel.COMPACT_FLOOR, kernel.COMPACT_RATIO
    kernel.COMPACT_FLOOR, kernel.COMPACT_RATIO = 0, float("inf")
    try:
        same_as_the_composition(program)
    finally:
        kernel.COMPACT_FLOOR, kernel.COMPACT_RATIO = floor, ratio


def test_the_hand_written_programs_reach_every_outcome():
    seen = set()
    for program in HAND_WRITTEN:
        for entry in same_as_the_composition(program):
            seen.add(entry[1] if entry[0].startswith("w") else entry[0])
    assert {"value0", "item0", "item1", "timed out", "raised",
            "interrupted", "slept", "unhandled", "observer"} <= seen


# -- the contract, one clause at a time --------------------------------------------

def test_value_is_the_events_or_timed_out():
    env = Environment()
    reply = env.event()
    env.schedule_call(1.0, lambda _e: reply.succeed("answer"))
    fast, slow = TimedWait(env, reply, 2.0), TimedWait(env, reply, 0.5)
    assert isinstance(fast, TimedWait)
    env.run()
    assert fast.value == "answer"
    assert slow.value is TIMED_OUT


def test_one_tick_to_arm_and_one_to_fire():
    env = Environment()
    reply = env.event()
    wait = TimedWait(env, reply, 5.0)
    assert env._seq == 1 and len(env._heap) == 1
    reply.succeed()
    assert env._seq == 2 and not wait.triggered
    env.step()
    assert env._seq == 3 and wait.triggered and not wait.processed


def test_zero_and_sub_ulp_deadlines_queue_in_the_lane():
    env = Environment(initial_time=1.0)
    order = []
    env.schedule_call(0, lambda _e: order.append("before"))
    for delay in (0.0, 1e-17):
        TimedWait(env, env.event(), delay).callbacks.append(
            lambda wait: order.append(wait.value))
    env.schedule_call(0, lambda _e: order.append("after"))
    assert not env._heap
    env.run()
    # each timer fires in lane order; its wait joins the back of the lane
    assert order == ["before", "after", TIMED_OUT, TIMED_OUT]
    assert env.now == 1.0


def test_the_timer_winning_prunes_a_queue_getter():
    env = Environment()
    queue = env.queue()
    wait = TimedWait(env, queue.get(), 1.0)
    env.run()
    assert wait.value is TIMED_OUT
    assert not queue._getters
    queue.put_nowait("late")
    assert len(queue) == 1  # kept for the next getter, not lost


def test_an_interrupted_waiter_tears_nothing_down():
    env = Environment()
    reply = env.event()
    waits = []

    def client():
        waits.append(TimedWait(env, reply, 5.0))
        try:
            yield waits[0]
        except Interrupt:
            pass

    process = env.process(client())
    env.run(until=1.0)
    process.interrupt()
    env.run(until=2.0)
    (wait,) = waits
    assert not wait.triggered and wait._defused
    before = env._seq
    reply.succeed("into nothing")
    env.run()
    assert wait.processed and wait.value == "into nothing"
    assert env._seq == before + 2  # the reply's tick and the wait's


@pytest.mark.parametrize("wait", [timed_wait, composed_wait])
def test_an_interrupted_wait_over_a_get_hands_the_item_on(wait):
    """Nobody waits on the wait any more, so it lets go of its get: the
    next put goes to a live getter, or stays queued for one."""
    env = Environment()
    queue = env.queue()
    log = []

    def waiter():
        try:
            yield from wait(env, queue.get(), 10.0)
        except Interrupt:
            log.append("interrupted")

    def later():
        log.append(((yield queue.get()), env.now))

    def scenario():
        process = env.process(waiter())
        yield env.timeout(1.0)
        process.interrupt()
        yield env.timeout(1.0)
        queue.put_nowait("item")
        yield env.timeout(1.0)
        env.process(later())

    env.process(scenario())
    env.run()
    assert log == ["interrupted", ("item", 3.0)]
    assert not queue._getters and len(queue) == 0


# -- unobservable --------------------------------------------------------------------

def cancelled_and_live():
    """A heap of cancelled timers due at 50 and one live event at 3."""
    env = Environment()
    for _ in range(5):
        TimedWait(env, env.event().succeed(), 50.0)
    env.schedule_call(3.0, lambda _e: None)
    env.run(until=1.0)
    assert len(env._heap) == 6
    return env


def test_run_to_exhaustion_ends_at_the_last_live_event():
    env = cancelled_and_live()
    env.run()
    assert env.now == 3.0
    assert not env._heap


def test_run_until_a_time_discards_without_stopping_short():
    env = cancelled_and_live()
    env.run(until=60.0)
    assert env.now == 60.0 and not env._heap


def test_peek_never_reports_a_cancelled_entry():
    env = cancelled_and_live()
    assert env.peek() == 3.0
    env.step()
    assert env.peek() == float("inf")
    # nor one in the lane (a zero-delay timer): step() passes over it
    TimedWait(env, env.event().succeed(), 0.0)
    env.step()  # the reply
    assert env.peek() == env.now and len(env._normal) == 2
    env.step()  # the wait
    assert env.peek() == float("inf") and not env._normal


def test_step_never_delivers_one_and_never_moves_the_clock_for_one():
    env = cancelled_and_live()
    env.step()
    assert env.now == 3.0
    with pytest.raises(SimulationError):
        env.step()
    assert env.now == 3.0 and not env._heap


def test_a_cancelled_timer_due_at_a_live_instant_is_a_no_op():
    env = Environment()
    fired = []
    TimedWait(env, env.event().succeed(), 2.0)
    env.schedule_call(2.0, fired.append)
    TimedWait(env, env.event().succeed(), 2.0)
    env.run()
    assert len(fired) == 1 and env.now == 2.0


def test_a_callers_own_timeout_is_never_cancelled():
    env = Environment()
    timer = env.timeout(7.0)
    wait = TimedWait(env, timer, 9.0)
    env.run()
    assert wait.value is not TIMED_OUT and timer.processed
    assert env.now == 7.0  # the wait's private 9.0 is cancelled, not this


# -- compaction ----------------------------------------------------------------------

def test_the_heap_holds_what_is_in_flight_not_what_was_armed():
    env = Environment()

    def client():
        for _ in range(1000):
            reply = env.event()
            env.schedule_call(0.01, lambda _e, reply=reply: reply.succeed())
            yield TimedWait(env, reply, 150.0)

    env.process(client())
    peak = 0
    while env.peek() != float("inf"):
        env.step()
        peak = max(peak, len(env._heap))
    assert env.now == pytest.approx(10.0)
    assert peak <= 2 * kernel.COMPACT_FLOOR + 2


def test_compaction_keeps_the_live_entries_and_the_list_object():
    env = Environment()
    heap = env._heap
    fired = []
    for index in range(200):
        if index % 2:
            env.schedule_call(1.0 + index % 7, lambda _e, index=index:
                              fired.append((env.now, index)))
        TimedWait(env, env.event().succeed(), 100.0)
    assert len(heap) == 300
    env.run(until=0.5)
    assert env._heap is heap and 100 <= len(heap) < 200
    env.run()
    assert fired == sorted(fired) and len(fired) == 100
    assert env.now == 7.0


# -- bad delays fail loudly ------------------------------------------------------------

@pytest.mark.parametrize("bad", [-1.0, -5e-324, float("nan"), -math.inf])
def test_a_delay_that_is_not_a_delay_is_refused(bad):
    env = Environment()
    handle = env.periodic(1.0, lambda: None)
    for arm in (lambda: env.timeout(bad),
                lambda: TimedWait(env, env.event(), bad),
                lambda: env.schedule_call(bad, lambda _e: None),
                lambda: env.periodic(bad, lambda: None),
                lambda: env.periodic(1.0, lambda: None, first_delay=bad),
                lambda: handle.defer(bad)):
        before = env._seq
        with pytest.raises(ValueError, match=str(bad)):
            arm()
        assert env._seq == before  # refused before anything was armed


def test_a_zero_period_is_still_refused():
    with pytest.raises(ValueError, match="0.0"):
        Environment().periodic(0.0, lambda: None)
