"""Generator-based discrete-event simulation kernel.

This is the clock that replaces the paper's wall-clock cluster.  Components
(front ends, the manager, distillers, cache nodes) are written as Python
generator functions that ``yield`` events; the :class:`Environment` drives
them in simulated-time order.  The design follows the classic SimPy model,
but is self-contained so the repository has no external simulation
dependency.

The kernel is the innermost loop of every experiment — a million-request
trace replay pushes tens of millions of events through
:meth:`Environment.run` — so the hot paths are deliberately low-level:
events use ``__slots__``, queues use :class:`collections.deque`, the
scheduler inlines its pushes, events due at the current instant skip
the heap for two FIFO lanes (see :class:`Environment`), and the run
loop avoids per-event method dispatch.
``benchmarks/test_bench_kernel.py`` tracks the resulting events/second
in ``BENCH_kernel.json``.

Example
-------
>>> env = Environment()
>>> log = []
>>> def ticker(env, period):
...     while True:
...         yield env.timeout(period)
...         log.append(env.now)
>>> _ = env.process(ticker(env, 10.0))
>>> env.run(until=35.0)
>>> log
[10.0, 20.0, 30.0]
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Scheduling priorities.  Urgent events (interrupts, process resumes) are
#: handled before normal events scheduled for the same simulated time.
URGENT = 0
NORMAL = 1

PENDING = object()


#: The value of a :class:`TimedWait` whose delay elapsed first.
TIMED_OUT = object()
#: ``callbacks`` of a cancelled private timer: empty, and no list to join.
_CANCELLED = type("_Cancelled", (tuple,), {})()
#: :meth:`Environment._compact` runs past a floor *and* a share of the heap.
COMPACT_FLOOR = 64
COMPACT_RATIO = 2


class SimulationError(Exception):
    """Base class for kernel-level errors."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The SNS layer uses interrupts to model component crashes: killing a
    distiller interrupts its service loop, exactly as SIGKILL would end a
    worker process on a cluster node.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A happening at a point in simulated time.

    An event is *triggered* when given a value (or exception) and scheduled,
    and *processed* once its callbacks have run.  Processes wait on events
    by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        env = self.env
        env._seq += 1
        env._normal.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A process waiting on the event will have ``exception`` raised at
        its ``yield`` statement.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq += 1
        env._normal.append(self)
        return self

    def _abandon(self) -> None:
        """Hook: the last observer detached (e.g. its process was
        interrupted).  Subclasses tied to a container can deregister."""

    def __repr__(self) -> str:
        state = "processed" if self.callbacks is None else (
            "triggered" if self._value is not PENDING else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    A timeout is *pending* until the delay elapses: it reports
    ``triggered == False`` while scheduled, and its value only becomes
    readable once the clock reaches it (the run loop installs the value
    at fire time).  It cannot be triggered by hand — the clock owns it.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float):
        if not delay >= 0:  # negative, or NaN
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        env._seq = seq = env._seq + 1
        at = env._now + delay
        if at > env._now:
            heappush(env._heap, (at, NORMAL, seq, self))
        else:  # zero (or sub-ulp) delay: due at the current instant
            env._normal.append(self)

    def succeed(self, value: Any = None) -> "Event":
        raise SimulationError(
            "a Timeout fires by the clock and cannot be triggered manually")

    def fail(self, exception: BaseException) -> "Event":
        raise SimulationError(
            "a Timeout fires by the clock and cannot be failed manually")


class Initialize(Event):
    """Immediate event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        env._seq += 1
        env._urgent.append(self)


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The event's value is the generator's return value.  If the generator
    raises, the process event fails with that exception (propagating to any
    process waiting on it, or aborting the simulation if unhandled).

    With ``absorb_interrupt`` an :class:`Interrupt` that escapes the
    generator ends the process normally (value ``None``) instead of
    failing it: the crash semantics of a killed component's loops (see
    :meth:`repro.core.component.Component.spawn`), without a wrapper
    generator frame on every resume.
    """

    __slots__ = ("_generator", "_target", "_absorb_interrupt")

    def __init__(self, env: "Environment", generator: Generator,
                 absorb_interrupt: bool = False):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        self._absorb_interrupt = absorb_interrupt
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible."""
        if self._value is not PENDING:
            raise SimulationError("cannot interrupt a dead process")
        env = self.env
        if self is env._active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(env)
        event._ok = False
        event._value = Interrupt(cause)
        event.callbacks.append(self._resume)
        env._schedule_at(event, URGENT, env._now)
        # Detach from whatever the process was waiting on so that a later
        # trigger of that event does not resume the interrupted frame.
        target = self._target
        if target is not None and target.callbacks is not None:
            _detach(target, self._resume)
        self._target = None

    def _resume(self, event: Event) -> None:
        if self._value is not PENDING:
            return  # already terminated (e.g. raced interrupt)
        env = self.env
        generator = self._generator
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    target = self._target
                    if target is not None and target.callbacks is not None:
                        # Still waiting on another event: this failure
                        # was scheduled before that wait began (a second
                        # interrupt in one instant, or one sent before
                        # the process first ran, finds no target to
                        # detach from).  Let go of it now, or its firing
                        # would resume the frame a second time.
                        _detach(target, self._resume)
                        self._target = None
                    exc = event._value
                    if isinstance(exc, Interrupt):
                        # re-wrap so each delivery is a distinct instance
                        exc = Interrupt(exc.cause)
                    next_event = generator.throw(exc)
            except StopIteration as stop:
                self._target = None
                self._value = stop.value
                env._seq += 1
                env._normal.append(self)
                break
            except BaseException as error:  # generator died
                self._target = None
                if self._absorb_interrupt and isinstance(error, Interrupt):
                    self._value = None  # killed: a normal end
                else:
                    self._ok = False
                    self._value = error
                env._seq += 1
                env._normal.append(self)
                break

            # an event is what has `callbacks` and `env`: two reads, no
            # isinstance per resume; anything else is thrown back in
            try:
                callbacks = next_event.callbacks
                foreign = next_event.env is not env
            except AttributeError:
                event = Event(env)
                event._ok = False
                event._value = TypeError(
                    f"process yielded non-event {next_event!r}")
                continue
            if foreign:
                raise SimulationError("event from a different environment")
            if callbacks is not None:
                # not yet processed: wait for it
                callbacks.append(self._resume)
                self._target = next_event
                break
            # already processed: feed its value back immediately
            event = next_event
        env._active_process = None


def _detach(event: Event, callback: Callable[[Event], None]) -> None:
    """Remove one observer from a not-yet-processed ``event``.

    The shared rule for an observer that stops caring — an interrupted
    process, a fired :class:`Condition`, a :class:`TimedWait` whose timer
    won.  An event left with no observer at all is marked defused (a later
    failure is not unhandled: nobody is waiting) and told via ``_abandon``,
    which eagerly deregisters events that live in a container (queue
    getters): chaos campaigns interrupt blocked consumers in tight
    loops, and stale entries would otherwise accumulate until the next
    put.  An event that still has another observer keeps it, untouched.
    """
    callbacks = event.callbacks
    try:
        callbacks.remove(callback)
    except ValueError:
        pass
    if not callbacks:
        event._defused = True
        event._abandon()


class Condition(Event):
    """Fires when ``count`` of the given events have triggered successfully.

    Used via :meth:`Environment.all_of`.  The value is a dict mapping
    each triggered event to its value.

    Once fired, the condition lets go of the events still pending: it
    removes its ``_check`` from them (see :func:`_detach`) and drops its
    event list, so a straggler pins neither the condition nor its value
    dict.  A deadline on one event is not a condition: see
    :class:`TimedWait`.
    """

    __slots__ = ("_events", "_need", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event],
                 count: int) -> None:
        super().__init__(env)
        self._events = events = list(events)
        self._need = min(count, len(events))
        self._done = 0
        if self._need == 0:
            self._events = ()
            self.succeed({})
            return
        check = self._check
        for event in events:
            if event.callbacks is None:  # already processed
                check(event)
                if self._value is not PENDING:
                    break  # fired, and has let go of the rest
            else:
                event.callbacks.append(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self._done += 1
            if self._done < self._need:
                return
            self.succeed({
                ev: ev._value
                for ev in self._events
                if ev.callbacks is None and ev._ok
            })
        # fired: release the events that lost the race
        check = self._check
        for ev in self._events:
            if ev.callbacks is not None:
                _detach(ev, check)
        self._events = ()

    def _abandon(self) -> None:
        # nobody waits any more: let go of each get still held, so its
        # item is handed on (QueueGet._abandon); other events keep their
        # schedule
        if self._value is PENDING:
            check = self._check
            for ev in self._events:
                if isinstance(ev, QueueGet) and ev.callbacks is not None:
                    _detach(ev, check)


class TimedWait(Event):
    """``event``'s outcome, or :data:`TIMED_OUT` if ``delay`` elapses first.

    The request path's deadline, scheduled as ``Condition(env, [event,
    env.timeout(delay)], 1)`` would be (DESIGN.md 5d "Deadlines"): a
    private :class:`Timeout` is armed at construction, and the wait
    joins the normal lane, one ``_seq`` tick, when the first of ``event``
    and the timer is processed — at once if ``event`` already is.  If
    the timer wins, the wait lets go of ``event`` (:func:`_detach`).  If
    ``event`` wins, the wait takes its value or exception and *cancels*
    the timer, which nobody else can hold: it never becomes an instant
    and is compacted out of the heap (:meth:`Environment._compact`).
    An interrupted waiter tears nothing down, except that a wait over a
    :meth:`Queue.get` lets go of the get, so the item is not lost.
    """

    __slots__ = ("_event", "_timer")

    def __init__(self, env: "Environment", event: Event, delay: float):
        self._timer = timer = Timeout(env, delay)
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._event = event
        if event.callbacks is None:  # already processed
            self._on_event(event)
        else:
            event.callbacks.append(self._on_event)
            timer.callbacks.append(self._on_timer)

    def _on_event(self, event: Event) -> None:
        self._ok = event._ok
        self._value = event._value
        env = self.env
        env._seq += 1
        env._normal.append(self)
        # cancel the private timer (see Environment._compact)
        self._timer.callbacks = _CANCELLED
        env._cancelled = cancelled = env._cancelled + 1
        if cancelled > COMPACT_FLOOR \
                and cancelled * COMPACT_RATIO > len(env._heap):
            env._compact()

    def _on_timer(self, _timer: Event) -> None:
        self._value = TIMED_OUT
        env = self.env
        env._seq += 1
        env._normal.append(self)
        # after the wait is scheduled, as a fired Condition releases: a
        # get granted in this instant hands its item on behind the wait
        # (one the wait let go of may have been processed since)
        event = self._event
        if event.callbacks is not None:
            _detach(event, self._on_event)

    def _abandon(self) -> None:
        # nobody waits any more: let go of a get, so its item is handed
        # on (QueueGet._abandon); the timer stays armed, and a wait over
        # any other event keeps its schedule
        event = self._event
        if self._value is PENDING and isinstance(event, QueueGet):
            _detach(event, self._on_event)


class QueueFull(SimulationError):
    """Raised by :meth:`Queue.put_nowait` when a bounded queue is full."""


class QueueGet(Event):
    """A ``get``: knows its queue so a waiter that lets go can undo it.

    Blocked, it is pruned from the queue's getters.  Granted but not yet
    taken (the item is its value, and the waiter was interrupted, or a
    :class:`TimedWait`'s timer won, before it was processed), the item
    goes to the next live getter, or back to the head of the queue.
    """

    __slots__ = ("_queue",)

    def __init__(self, env: "Environment", queue: "Queue") -> None:
        # Event's fields set inline: one call per get, not two
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._queue = queue

    def _abandon(self) -> None:
        queue = self._queue
        if self._value is PENDING:
            try:
                queue._getters.remove(self)
            except ValueError:
                pass
            return
        item = self._value
        getters = queue._getters
        while getters:
            getter = getters.popleft()
            if getter._value is PENDING and getter.callbacks:
                getter.succeed(item)
                return
        queue._items.appendleft(item)


class Queue:
    """FIFO queue with blocking ``get`` and optional capacity.

    This is the building block for every service queue in the system — a
    distiller's request queue, a front end's accept queue, the manager's
    report inbox.  Queue length is the paper's load metric (Section 4.5),
    so :attr:`length` is cheap and always current.

    Items and blocked getters live in :class:`collections.deque`\\ s, so
    every queue operation is O(1) no matter how deep the backlog — a
    saturated worker queue holding tens of thousands of requests costs
    the same per hand-off as an empty one.  Getters whose process was
    interrupted are pruned eagerly by the kernel (via
    :meth:`QueueGet._abandon`) and skipped lazily on delivery as a
    backstop, so ``_getters`` stays bounded under chaos kill loops.  An
    item granted to a getter that lets go before taking it is handed on
    by the same hook, so no item leaves with its waiter.
    """

    __slots__ = ("env", "capacity", "_items", "_getters")

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.env = env
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque = deque()

    @property
    def length(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def put_nowait(self, item: Any) -> None:
        """Enqueue ``item``; raise :class:`QueueFull` if at capacity."""
        items = self._items
        if self.capacity is not None and len(items) >= self.capacity:
            raise QueueFull(f"queue at capacity {self.capacity}")
        # hand directly to a waiting getter if any
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._value is not PENDING or not getter.callbacks:
                # Getter already resolved, or its process was interrupted
                # (the kernel detaches the resume callback on interrupt):
                # delivering here would lose the item.
                continue
            getter.succeed(item)
            return
        items.append(item)

    def try_put(self, item: Any) -> bool:
        """Enqueue ``item`` unless full; return whether it was accepted."""
        try:
            self.put_nowait(item)
        except QueueFull:
            return False
        return True

    def get(self) -> Event:
        """Return an event that fires with the next item (FIFO)."""
        event = QueueGet(self.env, self)
        items = self._items
        if items:
            event.succeed(items.popleft())
        else:
            self._getters.append(event)
        return event

    def get_nowait(self) -> Any:
        """Dequeue immediately; raise :class:`SimulationError` if empty."""
        if not self._items:
            raise SimulationError("queue is empty")
        return self._items.popleft()

    def clear(self) -> List[Any]:
        """Drop and return all queued items (used when a worker crashes)."""
        items = list(self._items)
        self._items.clear()
        return items


class PeriodicHandle:
    """One registered periodic callback (see :meth:`Environment.periodic`).

    The handle is how the owner detaches: :meth:`cancel` stops future
    ticks, :meth:`defer` skips the ticks inside a quiet window (the
    front-end watchdog sleeps out its restart tolerance this way).
    """

    __slots__ = ("env", "callback", "_cancelled", "_skip_until")

    def __init__(self, env: "Environment",
                 callback: Callable[[], None]) -> None:
        self.env = env
        self.callback = callback
        self._cancelled = False
        self._skip_until = float("-inf")

    def cancel(self) -> None:
        """Stop the callback permanently (idempotent)."""
        self._cancelled = True

    def defer(self, delay: float) -> None:
        """Skip any tick scheduled at a time ``<= now + delay``.

        The cadence itself is untouched — the shared bucket keeps
        firing for its other members — so after the window passes the
        callback resumes on its original phase.
        """
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._skip_until = self.env._now + delay


class _PeriodicBucket:
    """One recurring event driving every same-phase periodic callback.

    N maintenance loops with the same period used to cost N timeouts and
    N generator resumes per interval; a bucket costs one event, firing
    its members in registration order (which matches the order the old
    per-loop timeouts were re-armed, so within-tick event order is
    preserved for default configs).
    """

    __slots__ = ("env", "period", "handles", "next_fire")

    def __init__(self, env: "Environment", period: float,
                 first_fire: float) -> None:
        self.env = env
        self.period = period
        self.handles: List[PeriodicHandle] = []
        self.next_fire = first_fire
        event = Event(env)
        event._value = None
        event.callbacks.append(self._fire)
        env._schedule_at(event, NORMAL, first_fire)

    def _fire(self, _event: Event) -> None:
        env = self.env
        now = env._now
        registry = env._periodic
        old_key = (self.period, self.next_fire)
        if registry.get(old_key) is self:
            del registry[old_key]
        handles = [h for h in self.handles if not h._cancelled]
        if not handles:
            return  # every member cancelled: the bucket dies here
        self.handles = handles
        for handle in handles:
            if handle._cancelled or now <= handle._skip_until:
                continue
            handle.callback()
        # Re-arm *after* the callbacks run, exactly where a sleep-first
        # process loop re-armed its timeout — anything a callback
        # schedules at now + period keeps its old seq order relative to
        # the next tick.
        self.next_fire = next_fire = now + self.period
        key = (self.period, next_fire)
        if key not in registry:
            registry[key] = self
        event = Event(env)
        event._value = None
        event.callbacks.append(self._fire)
        env._schedule_at(event, NORMAL, next_fire)


class Environment:
    """The simulation world: clock, pending events, and process factory.

    Pending events live in three places.  An event due *later* is a
    ``(time, priority, seq, event)`` entry in ``_heap``.  An event due
    at the *current instant* — a ``succeed``/``fail``, a process start
    or end, a fired condition, an interrupt, a zero-delay timeout: the
    majority — needs no time and no tie-break, so it is appended bare
    to one of two FIFO lanes, ``_urgent`` or ``_normal``.  ``_seq``
    still advances once per scheduled event, lanes included.

    The next event is, in this order: an URGENT heap entry due now; the
    urgent lane; any heap entry due now; the normal lane; else the
    clock advances to the heap's head.  That is exactly the heap's
    ``(time, priority, seq)`` order, because a heap entry due at T was
    pushed while the clock was still before T (anything scheduled *at*
    T for T goes to a lane) and so has a smaller ``seq`` than every lane
    entry of instant T.  :meth:`step` is that rule; :meth:`run` inlines
    it; :meth:`peek` reads it.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: List[Any] = []
        self._urgent: deque = deque()
        self._normal: deque = deque()
        self._seq = 0
        self._cancelled = 0  # private timers, since the last compaction
        self._active_process: Optional[Process] = None
        #: live coalesced-timer buckets, keyed (period, next_fire_time);
        #: a registration joins the bucket already firing at its phase.
        self._periodic: dict = {}
        #: opt-in span tracer (see repro.obs); None means tracing is
        #: off and every instrumentation site is a single attr check.
        self.tracer: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def queue(self, capacity: Optional[int] = None) -> Queue:
        return Queue(self, capacity)

    def all_of(self, events: Iterable[Event]) -> Condition:
        events = list(events)
        return Condition(self, events, count=len(events))

    # -- scheduling and execution ------------------------------------------

    def _schedule_at(self, event: Event, priority: int, at: float) -> None:
        """Schedule ``event`` for time ``at`` (never before now).

        The one place that decides heap or lane; the hot paths
        (``succeed``, ``Timeout``, process ends) inline their case of it.
        The test is on the *sum*, not the delay: a delay below the
        clock's resolution lands on the current instant and must queue
        behind the events already scheduled for it.
        """
        self._seq = seq = self._seq + 1
        if at > self._now:
            heappush(self._heap, (at, priority, seq, event))
        elif priority == URGENT:
            self._urgent.append(event)
        else:
            self._normal.append(event)

    def schedule_call(self, delay: float,
                      callback: Callable[[Event], None],
                      value: Any = None) -> Event:
        """Schedule ``callback(event)`` to run after ``delay``.

        The cheap alternative to spawning a whole process for a one-shot
        action (e.g. delivering a message after a network delay): one
        event instead of a process, its initializer, and a timeout.  The
        event fires successfully with ``value``.
        """
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        event = Event(self)
        event._value = value
        event.callbacks.append(callback)
        self._seq = seq = self._seq + 1
        at = self._now + delay
        if at > self._now:
            heappush(self._heap, (at, NORMAL, seq, event))
        else:
            self._normal.append(event)
        return event

    def periodic(self, period: float, callback: Callable[[], None], *,
                 first_delay: Optional[float] = None) -> PeriodicHandle:
        """Run ``callback()`` every ``period`` seconds on a shared timer.

        All callbacks registered with the same period and phase share
        ONE recurring event (see :class:`_PeriodicBucket`) — the
        coalesced replacement for a fleet of ``while True: yield
        timeout(period)`` maintenance loops, each of which costs a heap
        entry and two generator resumes per node per interval.

        ``first_delay`` defaults to ``period`` (sleep-first loop
        parity).  Pass ``first_delay=0`` for a body-first loop: the
        first tick fires once at the current time with URGENT priority
        — mirroring the ``Initialize`` event that used to start the
        process — and the handle then joins the steady bucket at
        ``now + period``, so a body-first loop and a sleep-first loop
        registered right after it share one bucket in registration
        order (exactly the within-tick order the per-process timeouts
        produced).  Callbacks must not yield — spawn a process from
        inside the callback for anything that needs to block.
        """
        if not period > 0:
            raise ValueError(f"period must be positive, got {period}")
        if first_delay is None:
            first_delay = period
        if not first_delay >= 0:
            raise ValueError(f"first_delay must be >= 0, got {first_delay}")
        handle = PeriodicHandle(self, callback)
        if first_delay == 0:
            first_fire = self._now + period

            def _first(_event: Event, _handle: PeriodicHandle = handle):
                if not _handle._cancelled \
                        and self._now > _handle._skip_until:
                    _handle.callback()

            event = Event(self)
            event._value = None
            event.callbacks.append(_first)
            self._schedule_at(event, URGENT, self._now)
        else:
            first_fire = self._now + first_delay
        key = (period, first_fire)
        bucket = self._periodic.get(key)
        if bucket is None:
            bucket = _PeriodicBucket(self, period, first_fire)
            self._periodic[key] = bucket
        bucket.handles.append(handle)
        return handle

    def _compact(self) -> None:
        """Drop the cancelled timers from the heap, in place (``run()``
        holds the list); ``(time, priority, seq)`` is a total order, so
        the survivors pop as they would have.  Amortised constant per
        wait; ``_cancelled`` over-counts those that left through a lane."""
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if entry[3].callbacks is not _CANCELLED]
        heapify(heap)
        self._cancelled = 0

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none (never a
        cancelled timer's: in a lane, its wait is always behind it)."""
        if self._urgent or self._normal:
            return self._now
        heap = self._heap
        while heap and heap[0][3].callbacks is _CANCELLED:
            heappop(heap)
        return heap[0][0] if heap else float("inf")

    def _pop_next(self) -> Optional[Event]:
        """Remove and return the next event, advancing the clock to it;
        None when nothing is pending.  The ordering rule of the class
        docstring, spelled out once (a cancelled timer at the head is
        dropped first, so the clock never moves for one)."""
        heap = self._heap
        while heap and heap[0][3].callbacks is _CANCELLED:
            heappop(heap)
        head = heap[0] if heap else None
        due_now = head is not None and head[0] <= self._now
        if due_now and head[1] == URGENT:
            return heappop(heap)[3]
        if self._urgent:
            return self._urgent.popleft()
        if due_now:
            return heappop(heap)[3]
        if self._normal:
            return self._normal.popleft()
        if head is None:
            return None
        self._now = head[0]
        return heappop(heap)[3]

    def step(self) -> None:
        """Process the single next event."""
        event = self._pop_next()
        while event is not None and event.callbacks is _CANCELLED:
            event = self._pop_next()  # one cancelled in a lane
        if event is None:
            raise SimulationError("no more events")
        if event._value is PENDING:
            # a Timeout firing: its value (None) becomes readable now
            event._value = None
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks and not event._defused:
            # A failed event nobody was waiting on: a process died with an
            # unhandled exception.  Surface it rather than losing it.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        Returns the event's value when ``until`` is an event; raises the
        event's exception if it failed (whether it fails during this run
        or had already failed before the call).  A run that stops at an
        event leaves whatever else was due at that instant in the lanes;
        the next ``run``/``step`` takes it from there.
        """
        stop_at = float("inf")
        if isinstance(until, Event):
            if until.callbacks is None:
                if not until._ok:
                    raise until._value
                return until._value

            def _stop(event: Event) -> None:
                raise StopSimulation(event)

            until.callbacks.append(_stop)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(f"until={stop_at} is in the past")

        # The hot loop: _pop_next() and step() inlined, branches ordered
        # by how often they are taken, so a million-event run pays no
        # per-event method dispatch.
        heap = self._heap
        urgent = self._urgent
        normal = self._normal
        pop = heappop
        now = self._now
        try:
            while True:
                if urgent:
                    if heap and heap[0][0] <= now and heap[0][1] == URGENT:
                        event = pop(heap)[3]
                    else:
                        event = urgent.popleft()
                elif heap:
                    at = heap[0][0]
                    if at <= now:
                        event = pop(heap)[3]
                    elif normal:
                        event = normal.popleft()
                    elif at > stop_at:
                        break
                    else:
                        event = pop(heap)[3]
                        if event.callbacks is _CANCELLED:
                            continue  # not an instant: the clock stays
                        self._now = now = at
                elif normal:
                    event = normal.popleft()
                else:
                    break
                if event._value is PENDING:
                    event._value = None
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not callbacks and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            event = stop.args[0]
            if not event._ok:
                raise event._value
            return event._value
        if stop_at != float("inf"):
            self._now = stop_at
        return None
