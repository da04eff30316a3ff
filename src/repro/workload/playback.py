"""The trace playback engine (Section 4.1).

"In order to realistically stress test TranSend, we created a high
performance trace playback engine.  The engine can generate requests at a
constant (and dynamically tunable) rate, or it can faithfully play back a
trace according to the timestamps in the trace file."

The engine is a simulation component: it submits each request to a
*service adapter* — any callable ``submit(record) -> Event`` whose event
fires with a response object — and records per-request outcomes for the
analysis layer.  Three modes:

* :meth:`PlaybackEngine.play` — faithful timestamps; accepts any
  iterable of records, so a streaming trace source (a generator, or
  :func:`~repro.workload.trace.iter_trace` over a file) replays without
  ever materializing the full trace;
* :meth:`PlaybackEngine.constant_rate` — Poisson arrivals at a fixed rate;
* :meth:`PlaybackEngine.ramp` — a piecewise-constant rate schedule, used
  by the Figure 8 self-tuning and Table 2 scalability experiments to
  sweep offered load upward during a single run.

For million-request replays, construct the engine with
``record_outcomes=False``: per-request :class:`RequestOutcome` objects
are skipped and only the O(1) :class:`PlaybackStats` aggregate is kept,
so memory stays bounded regardless of trace length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.sim.kernel import (TIMED_OUT, Environment, Event, Interrupt,
                              TimedWait)
from repro.sim.rng import Stream
from repro.workload.trace import TraceRecord

SubmitFn = Callable[[TraceRecord], Event]


def _check(name: str, value: float, positive: bool = False) -> None:
    """Refuse a rate, duration or timeout that is not finite or is below
    its floor (0, excluded when ``positive``).  Every ordered comparison
    with NaN is false, so the players' own bound checks let it through:
    it would hang a run or count an answered request as timed out."""
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        raise ValueError(f"{name} must be finite and "
                         f"{'> 0' if positive else '>= 0'}, got {value!r}")


@dataclass
class PlaybackStats:
    """O(1) streaming aggregate over all playback requests.

    Always maintained, whether or not per-request outcomes are recorded
    — it is the only record-keeping that survives a bounded-memory
    million-request replay.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    latency_sum: float = 0.0

    def observe_success(self, latency: float) -> None:
        self.completed += 1
        self.latency_sum += latency

    def observe_failure(self) -> None:
        self.failed += 1


@dataclass
class RequestOutcome:
    """One completed (or failed) playback request."""

    record: TraceRecord
    submitted_at: float
    completed_at: Optional[float]
    ok: bool
    response: Any = None
    error: Optional[str] = None
    #: id of this request's span tree when it was sampled for tracing.
    trace_id: Optional[str] = None

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class PlaybackEngine:
    """Drives a service adapter from a trace or a rate process."""

    def __init__(self, env: Environment, submit: SubmitFn,
                 rng: Optional[Stream] = None,
                 timeout_s: Optional[float] = None,
                 record_outcomes: bool = True,
                 on_success: Optional[Callable[[Any, float], None]]
                 = None) -> None:
        if timeout_s is not None:
            _check("timeout_s", timeout_s, positive=True)
        self.env = env
        self.submit = submit
        self.rng = rng
        self.timeout_s = timeout_s
        #: False = bounded-memory mode: keep only :attr:`stats`, never
        #: append to :attr:`outcomes` (which stays empty).
        self.record_outcomes = record_outcomes
        #: optional streaming observer called with (response, latency_s)
        #: for every completed request — how a million-request replay
        #: feeds exact-percentile accumulators (LatencyStats) without
        #: per-request outcome objects.
        self.on_success = on_success
        self.outcomes: List[RequestOutcome] = []
        self.stats = PlaybackStats()
        self.in_flight = 0

    # -- modes ----------------------------------------------------------------

    def play(self, records: Iterable[TraceRecord],
             time_offset: float = 0.0):
        """Process generator: faithful playback by trace timestamps.

        ``records`` may be any iterable — a list, a generator, or a
        streaming file reader — and is consumed one record at a time;
        the first record's timestamp anchors the trace's time origin.
        """
        env = self.env
        origin = None
        for record in records:
            if origin is None:
                origin = record.timestamp
            due = time_offset + (record.timestamp - origin)
            wait = due - env._now
            if wait > 0:
                yield env.timeout(wait)
            self._launch(record)

    def constant_rate(self, rate_rps: float, duration_s: float,
                      records: Sequence[TraceRecord]):
        """Process generator: Poisson arrivals cycling over ``records``."""
        if self.rng is None:
            raise ValueError("constant_rate mode requires an RNG stream")
        _check("rate_rps", rate_rps, positive=True)
        _check("duration_s", duration_s)
        if not records:
            raise ValueError(
                "constant_rate mode needs records to cycle over")
        end = self.env.now + duration_s
        index = 0
        while True:
            gap = self.rng.exponential(1.0 / rate_rps)
            if self.env.now + gap >= end:
                return
            yield self.env.timeout(gap)
            self._launch(records[index % len(records)])
            index += 1

    def ramp(self, schedule: Sequence[Tuple[float, float]],
             records: Sequence[TraceRecord]):
        """Process generator: rate steps given as (duration_s, rate_rps).

        A rate of 0 pauses offered load for that step.
        """
        if self.rng is None:
            raise ValueError("ramp mode requires an RNG stream")
        if not records:
            raise ValueError("ramp mode needs records to cycle over")
        for duration_s, rate_rps in schedule:
            _check("duration_s", duration_s)
            _check("rate_rps", rate_rps)
        index = 0
        for duration_s, rate_rps in schedule:
            if rate_rps == 0:
                yield self.env.timeout(duration_s)
                continue
            end = self.env.now + duration_s
            while True:
                gap = self.rng.exponential(1.0 / rate_rps)
                if self.env.now + gap >= end:
                    remaining = end - self.env.now
                    if remaining > 0:
                        yield self.env.timeout(remaining)
                    break
                yield self.env.timeout(gap)
                self._launch(records[index % len(records)])
                index += 1

    # -- request lifecycle ---------------------------------------------------------

    def _launch(self, record: TraceRecord) -> None:
        self.env.process(self._request(record))

    def _request(self, record: TraceRecord):
        env = self.env
        stats = self.stats
        started = env._now
        stats.submitted += 1
        self.in_flight += 1
        tracer = env.tracer
        root = None
        if tracer is not None:
            # client-side root span: covers the whole request including
            # queueing/network the service never sees.  The hand-off
            # rides the synchronous submit() chain into the front end.
            root = tracer.open_trace("request", category="other")
            if root is not None:
                url = getattr(record, "url", None)
                if url is not None:
                    root.annotate(url=url)
        trace_id = root.trace_id if root is not None else None
        try:
            if tracer is not None:
                tracer.hand_off(root)
            try:
                response_event = self.submit(record)
            finally:
                if tracer is not None:
                    # the chain either consumed the hand-off
                    # synchronously or never will (no instrumented
                    # ingress, or submit raised): clear it so it cannot
                    # leak into an unrelated request
                    tracer.drop_pending()
            if self.timeout_s is not None:
                response = yield TimedWait(
                    env, response_event, self.timeout_s)
                if response is TIMED_OUT:
                    if root is not None:
                        root.annotate(outcome="timeout")
                    stats.observe_failure()
                    if self.record_outcomes:
                        self.outcomes.append(RequestOutcome(
                            record=record, submitted_at=started,
                            completed_at=None, ok=False, error="timeout",
                            trace_id=trace_id))
                    return
            else:
                response = yield response_event
            if root is not None:
                root.annotate(
                    outcome=getattr(response, "status", "ok"))
            now = env._now
            stats.observe_success(now - started)
            if self.on_success is not None:
                self.on_success(response, now - started)
            if self.record_outcomes:
                self.outcomes.append(RequestOutcome(
                    record=record, submitted_at=started,
                    completed_at=now, ok=True, response=response,
                    trace_id=trace_id))
        except Interrupt:
            raise
        except Exception as error:  # adapter-level failure
            if root is not None:
                root.annotate(outcome=f"error:{type(error).__name__}")
            stats.observe_failure()
            if self.record_outcomes:
                self.outcomes.append(RequestOutcome(
                    record=record, submitted_at=started, completed_at=None,
                    ok=False, error=f"{type(error).__name__}: {error}",
                    trace_id=trace_id))
        finally:
            if root is not None:
                root.finish()
            self.in_flight -= 1

    # -- summary -------------------------------------------------------------------

    def completed(self) -> List[RequestOutcome]:
        return [outcome for outcome in self.outcomes if outcome.ok]

    def failed(self) -> List[RequestOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def latencies(self) -> List[float]:
        return [outcome.latency for outcome in self.completed()
                if outcome.latency is not None]
