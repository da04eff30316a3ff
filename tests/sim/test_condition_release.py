"""A fired wait lets go of whatever lost the race.

The pattern is ``yield TimedWait(env, reply, deadline_s)``: playback, the
manager stub's dispatch, the cache lookup and every HotBot gather do it
once per request.  The loser — usually the wait's private timer, which
is cancelled and never becomes an instant of its own; sometimes the
reply — must neither keep the wait (and through its value the whole
response) alive, nor hear from it again.  A fired ``Condition``
(``all_of``) owes its stragglers the same.
"""

import gc
import weakref

from repro.sim.kernel import TIMED_OUT, Condition, Environment, TimedWait
from repro.tacc.worker import WorkerError


class Response:
    """Stands in for a reply payload (weakly referenceable)."""


def race(env, reply, deadline_s, outcomes):
    won = yield TimedWait(env, reply, deadline_s)
    outcomes.append("timeout" if won is TIMED_OUT else "reply")


def test_reply_failing_after_the_timer_won_is_not_an_unhandled_error():
    env = Environment()
    reply = env.event()
    outcomes = []
    env.process(race(env, reply, 1.0, outcomes))
    env.run(until=2.0)
    assert outcomes == ["timeout"]
    # the wait was the reply's only observer: nobody is waiting
    assert reply.callbacks == []
    reply.fail(WorkerError("distiller crashed"))
    env.run()  # would raise WorkerError if the failure counted as unhandled
    assert reply.processed and not reply.ok
    assert outcomes == ["timeout"]


def test_reply_succeeding_after_the_timer_won_is_not_delivered():
    env = Environment()
    reply = env.event()
    outcomes = []
    waiter = env.process(race(env, reply, 1.0, outcomes))
    env.run(until=2.0)
    reply.succeed(Response())
    env.run()
    assert outcomes == ["timeout"]
    assert waiter.processed and waiter.ok


def test_failed_reply_beats_the_timer_and_reaches_the_waiter():
    env = Environment()
    reply = env.event()
    seen = []

    def waiter():
        try:
            yield TimedWait(env, reply, 5.0)
        except WorkerError as error:
            seen.append(str(error))

    env.process(waiter())
    env.schedule_call(1.0, lambda _e: reply.fail(WorkerError("boom")))
    env.run()
    assert seen == ["boom"]
    assert env.now == 1.0  # the cancelled timer is not an instant


def test_event_with_another_observer_keeps_it_and_is_not_defused():
    env = Environment()
    reply = env.event()
    outcomes = []
    heard = []
    env.process(race(env, reply, 1.0, outcomes))
    env.run(until=0.5)  # the wait has subscribed
    reply.callbacks.append(heard.append)
    env.run(until=2.0)
    assert outcomes == ["timeout"]
    assert reply.callbacks == [heard.append]
    assert not reply._defused
    reply.succeed("late")
    env.run()
    assert heard == [reply]


def test_all_of_failure_releases_the_other_events():
    env = Environment()
    first, second = env.event(), env.event()
    condition = env.all_of([first, second])
    condition.callbacks.append(lambda _e: None)
    first.fail(WorkerError("first"))
    env.run()
    assert not condition.ok
    assert second.callbacks == [] and second._defused
    second.fail(WorkerError("second"))
    env.run()  # not unhandled


def test_condition_over_processed_events_does_not_subscribe_to_the_rest():
    env = Environment()
    done = env.event().succeed("done")
    env.run()
    pending = env.event()
    condition = Condition(env, [done, pending], 1)
    assert condition.triggered
    assert pending.callbacks == []
    env.run()
    assert list(condition.value.values()) == ["done"]


def test_wait_on_a_processed_event_fires_at_once_and_arms_no_instant():
    env = Environment()
    done = env.event().succeed("done")
    env.run()
    wait = TimedWait(env, done, 30.0)
    assert wait.triggered
    assert env.peek() == 0.0  # the wait itself, in the lane
    env.run()
    assert wait.value == "done"
    assert env.now == 0.0


def test_finished_race_is_freed_by_refcount_before_the_timer_is_due():
    """No cycle keeps the response: with the collector off it dies with
    its consumer, long before the timer it raced was due."""
    env = Environment()
    refs = []

    def client():
        reply = env.event()
        env.schedule_call(1.0, lambda _e, reply=reply:
                          reply.succeed(Response()))
        won = yield TimedWait(env, reply, 30.0)
        refs.append(weakref.ref(won))

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        env.process(client())
        env.run(until=2.0)
        # 30.0 while the losing timer sat out its delay in the heap;
        # cancelled, it is not pending
        assert env.peek() == float("inf")
        (response,) = refs
        assert response() is None
    finally:
        if was_enabled:
            gc.enable()
