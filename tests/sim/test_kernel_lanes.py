"""Same-instant lanes: the kernel's next-event rule against a heap-only
reference scheduler, and the step/peek/run API under lanes.

The kernel keeps events due at the current instant in two FIFO lanes
instead of the heap, and a timed wait whose event won cancels its
private timer, which is then discarded at the head of the heap or
compacted out of it.  The claim is that neither changes a trajectory:
live events still fire in ``(time, priority, seq)`` order and a
cancelled timer is never an instant.  The reference below *is* that
order — every event goes through one heap keyed ``(time, priority,
seq)``, a cancelled entry is dropped when it surfaces and the heap is
never compacted — and seeded random programs must produce the same log
on both.
"""

import random
from heapq import heappop, heappush

import pytest

from repro.sim import kernel
from repro.sim.kernel import (_CANCELLED, NORMAL, PENDING, TIMED_OUT, URGENT,
                              Environment, Interrupt, SimulationError,
                              TimedWait)


# -- the reference: one heap, nothing else ---------------------------------------

class _HeapLane:
    """Stands in for a lane: whatever the kernel appends is pushed on
    the heap for the current instant.  Always reads as empty."""

    def __init__(self, env, priority):
        self.env, self.priority = env, priority

    def append(self, event):
        env = self.env  # the kernel bumped _seq just before appending
        heappush(env._heap, (env._now, self.priority, env._seq, event))

    def __bool__(self):
        return False


class ReferenceEnvironment(Environment):
    """The pre-lane scheduler: pop the least (time, priority, seq);
    drop a cancelled timer there, and nowhere else."""

    def __init__(self, initial_time=0.0):
        super().__init__(initial_time)
        self._urgent = _HeapLane(self, URGENT)
        self._normal = _HeapLane(self, NORMAL)

    def _compact(self):
        pass

    def step(self):
        at, _, _, event = heappop(self._heap)
        if event.callbacks is _CANCELLED:
            return  # not an instant: the clock stays
        self._now = at
        if event._value is PENDING:
            event._value = event._pending_value
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks and not event._defused:
            raise event._value

    def run(self, until=None):
        stop_at = float("inf") if until is None else float(until)
        while self._heap and self._heap[0][0] <= stop_at:
            self.step()
        if until is not None:
            self._now = stop_at


# -- seeded random programs --------------------------------------------------------

#: zero, below the clock's resolution once now >= 1 (now + d == now),
#: and values that collide on the same instants over and over
DELAYS = (0.0, 0.0, 1e-17, 5e-324, 0.5, 0.5, 1.0, 1.0, 1.5, 2.0)
OPS = ("timeout", "timeout", "succeed", "fail", "race", "gather", "spawn",
       "interrupt", "put", "get", "call", "periodic", "urgent")


def make_script(rng, depth=0):
    """A process body as data, so that what a program does never
    depends on the order it is scheduled in."""
    script = []
    for _ in range(rng.randint(3, 9)):
        op = rng.choice(OPS)
        if op == "spawn":
            arg = make_script(rng, depth + 1) if depth < 2 else []
        elif op in ("succeed", "fail", "interrupt"):
            arg = rng.randrange(8)
        elif op == "gather":
            arg = (rng.choice(DELAYS), rng.choice(DELAYS))
        elif op == "race":
            arg = (rng.randrange(8), rng.choice(DELAYS))
        elif op == "periodic":
            arg = (rng.choice((0.5, 1.0)), rng.choice((None, 0.0, 1e-17)),
                   rng.randint(1, 3))
        else:
            arg = rng.choice(DELAYS)
        script.append((op, arg))
    return script


def play(env, seed, drive):
    """Run the program of ``seed`` on ``env``; return its log."""
    rng = random.Random(seed)
    scripts = [make_script(rng) for _ in range(rng.randint(2, 5))]
    log = []
    queue = env.queue()
    shared = [env.event() for _ in range(8)]
    procs = []

    def note(*what):
        log.append(what + (env.now, env._seq))

    for index, event in enumerate(shared):
        # an observer, so a fail() nobody waits for is not "unhandled"
        event.callbacks.append(lambda _e, index=index: note("fired", index))

    def start_ticker(name, period, first_delay, ticks):
        left = [ticks]

        def tick():
            note(name, "tick")
            left[0] -= 1
            if not left[0]:
                handle.cancel()

        handle = env.periodic(period, tick, first_delay=first_delay)

    def body(name, script):
        for op, arg in script:
            try:
                if op == "timeout":
                    yield env.timeout(arg)
                elif op == "succeed" and not shared[arg].triggered:
                    shared[arg].succeed(name)
                elif op == "fail" and not shared[arg].triggered:
                    shared[arg].fail(RuntimeError(name))
                elif op == "race":
                    won = yield TimedWait(env, shared[arg[0]], arg[1])
                    note(name, "won", won is not TIMED_OUT)
                elif op == "gather":
                    yield env.all_of([env.timeout(arg[0]),
                                      env.timeout(arg[1])])
                elif op == "spawn":
                    child = f"{name}.{len(procs)}"
                    procs.append(env.process(body(child, arg)))
                elif op == "interrupt":
                    # any live process, also one that has not run yet
                    # or has an interrupt pending from this instant
                    victim = procs[arg % len(procs)]
                    if victim.is_alive \
                            and victim is not env.active_process:
                        victim.interrupt(name)
                elif op == "put":
                    queue.put_nowait(name)
                elif op == "get":
                    got = yield TimedWait(env, queue.get(), arg)
                    note(name, "got", got is not TIMED_OUT and got)
                elif op == "call":
                    env.schedule_call(arg, lambda _e: note(name, "called"))
                elif op == "periodic":
                    start_ticker(name, *arg)
                elif op == "urgent":
                    # an URGENT entry that waits in the heap, and on
                    # firing fills the urgent lane (a process start): a
                    # second one due at the same instant still precedes
                    event = env.event()
                    event._value = None
                    event.callbacks.append(lambda _e: procs.append(
                        env.process(body(f"{name}.u", [("call", 0.0)]))))
                    env._schedule_at(event, URGENT, env.now + arg)
            except Interrupt as interrupt:
                note(name, "interrupted", interrupt.cause)
            except RuntimeError as error:
                note(name, "raised", str(error))
            note(name, op)

    for index, script in enumerate(scripts):
        procs.append(env.process(body(f"p{index}", script)))
    drive(env)
    note("end")
    return log


def run_whole(env):
    env.run()


def run_stepwise(env):
    while env.peek() != float("inf"):
        env.step()


SLICES = (0.0, 0.25, 0.5, 1.0, 1.0, 2.75)


def make_marker(env):
    """An event whose firing schedules more work for its own instant."""
    marker = env.timeout(0.25)
    marker.callbacks.append(lambda _e: env.schedule_call(0, lambda _e: None))
    return marker


def run_sliced(env):
    """Stop on times (between events and on them), then on an event
    that leaves same-instant work behind."""
    for until in SLICES:
        env.run(until=until)
    env.run(until=make_marker(env))
    assert env.peek() == env.now
    env.run()


def reference_sliced(env):
    """run(until=time) schedules nothing, but the marker does: give the
    reference the same one."""
    for until in SLICES:
        env.run(until=until)
    make_marker(env)
    env.run()


@pytest.mark.parametrize("seed", range(60))
def test_lanes_fire_in_heap_order(seed):
    expected = play(ReferenceEnvironment(), seed, run_whole)
    assert len(expected) > 10
    assert play(Environment(), seed, run_whole) == expected
    assert play(Environment(), seed, run_stepwise) == expected
    assert play(Environment(), seed, run_sliced) \
        == play(ReferenceEnvironment(), seed, reference_sliced)


class CompactingEnvironment(Environment):
    """The kernel, counting what its compactions take out of the heap
    and whether ``run()`` was on the stack."""

    removed = inside_run = 0
    running = False

    def run(self, until=None):
        self.running = True
        try:
            return super().run(until)
        finally:
            self.running = False

    def _compact(self):
        before = len(self._heap)
        super()._compact()
        self.removed += before - len(self._heap)
        self.inside_run += self.running


@pytest.fixture
def compact_at_every_cancel(monkeypatch):
    """The thresholds out of the way: every wait whose event wins
    filters and re-heapifies the heap, from inside ``run()`` — that is
    where a wait's callbacks run."""
    monkeypatch.setattr(kernel, "COMPACT_FLOOR", 0)
    monkeypatch.setattr(kernel, "COMPACT_RATIO", float("inf"))


def test_compaction_changes_no_order(compact_at_every_cancel):
    removed = inside_run = 0
    for seed in range(60):
        expected = play(ReferenceEnvironment(), seed, run_whole)
        for drive in (run_whole, run_stepwise):
            env = CompactingEnvironment()
            assert play(env, seed, drive) == expected
            removed += env.removed
            inside_run += env.inside_run
        assert play(CompactingEnvironment(), seed, run_sliced) \
            == play(ReferenceEnvironment(), seed, reference_sliced)
    assert removed > 60 and inside_run > 60


def test_reference_is_not_vacuous():
    """The programs do exercise same-instant ties: a scheduler that
    drains the heap before the urgent lane produces a different log."""
    class HeapFirst(Environment):
        def _pop_next(self):
            if self._heap and self._heap[0][0] <= self._now:
                return heappop(self._heap)[3]
            return super()._pop_next()

    differing = sum(
        play(HeapFirst(), seed, run_stepwise)
        != play(ReferenceEnvironment(), seed, run_whole)
        for seed in range(60))
    assert differing > 0


# -- the API under lanes -----------------------------------------------------------

def test_seq_counts_lane_events():
    env = Environment()
    env.event().succeed()          # normal lane
    env.timeout(0)                 # zero delay: normal lane
    env.timeout(1.0)               # heap
    env.schedule_call(0, lambda _e: None)
    assert env._seq == 4
    assert len(env._heap) == 1


def test_peek_is_now_while_a_lane_holds_work():
    env = Environment(initial_time=3.0)
    env.timeout(2.0)
    assert env.peek() == 5.0
    env.event().succeed()
    assert env.peek() == 3.0
    env.step()
    assert env.peek() == 5.0
    env.step()
    assert env.now == 5.0
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        env.step()


def test_step_takes_urgent_lane_before_heap_entry_due_now():
    env = Environment()
    order = []
    env.schedule_call(1.0, lambda _e: order.append("first"))
    env.schedule_call(1.0, lambda _e: order.append("second"))

    def starter(_event):
        order.append("starter")

        def child():
            order.append("child")
            yield env.timeout(0)
            order.append("child-after-zero-delay")

        env.process(child())       # Initialize: urgent lane

    env.schedule_call(1.0, starter)
    env.run(until=0.5)
    for _ in range(3):
        env.step()
    assert order == ["first", "second", "starter"]
    env.step()                     # the child starts before anything else
    assert order[-1] == "child"
    env.run()
    assert order[-1] == "child-after-zero-delay"


def test_sub_ulp_delay_queues_behind_the_current_instant():
    """now + delay == now: the timeout belongs to this instant and must
    not overtake what was already scheduled for it."""
    env = Environment(initial_time=1.0)
    order = []
    env.schedule_call(0, lambda _e: order.append("zero"))
    env.schedule_call(1e-17, lambda _e: order.append("sub-ulp"))
    env.schedule_call(0, lambda _e: order.append("zero-again"))
    assert not env._heap
    env.run()
    assert order == ["zero", "sub-ulp", "zero-again"]
    assert env.now == 1.0


def test_run_until_event_leaves_lane_work_for_the_next_run():
    env = Environment()
    order = []
    stop = env.event()
    stop.callbacks.append(lambda _e: order.append("stop"))
    stop.succeed("value")
    env.schedule_call(0, lambda _e: order.append("same-instant"))
    env.schedule_call(1.0, lambda _e: order.append("later"))
    assert env.run(until=stop) == "value"
    assert order == ["stop"]
    assert env.peek() == 0.0
    env.run(until=0.5)
    assert order == ["stop", "same-instant"]
    env.run()
    assert order == ["stop", "same-instant", "later"]
