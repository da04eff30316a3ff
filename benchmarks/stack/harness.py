"""One unit of measurement: build a deployment, replay a trace, read
the counters.

A *unit* is a fresh deployment plus a freshly generated trace, replayed
open loop through `PlaybackEngine.play` from this one process and
thread: requests are sent at the simulated time the trace says they are
due, whatever the service is doing, so a slow service gets a queue and
not less load.  Latency runs from that due time to the answer; because
the sender lives on the simulated clock it is never late, so there is
no generator lag to report.

Host time is measured around replay + drain only.  The replay advances
in slices of `SLICE_REQUESTS` requests' worth of simulated time
(`cluster.run(until=...)` schedules nothing, so slicing adds no
events); between slices the harness reads the heap depth and the number
of requests in flight.

This box's speed swings by a third for tens of seconds at a time (a
shared host; no steal time shows in /proc/stat), which no statistic
over a 20 s run can average away: requests per second as clocked
spread by 20-35% between identical runs, more than any bound the
benchmark may carry.  So between slices, every `PROBE_EVERY_S` of host
time, the harness also times `host_probe`, a fixed piece of
simulator-like work of its own.  The mean probe time says how fast the
host was *while this replay ran*; `Unit.replay_s` excludes the probes
and `Unit.host_speed` lets host metrics be stated in units of probe
work instead of seconds, which is what makes two runs of the same code
agree (see README.md, "Noise").
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_right
from heapq import heappop, heappush
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs import install_tracer
from repro.workload.playback import PlaybackEngine

from benchmarks.stack.loadgen import Step, derive, scaled
from benchmarks.stack.workloads import Workload


#: The unit host time is restated in: one `host_probe` counts as this
#: many seconds.  It is a definition, not a measurement (it happens to
#: be what the probe takes on the box that recorded README.md's tables,
#: so that restated figures read like that box's seconds); changing it
#: rescales every restated figure and no comparison between them.
PROBE_REFERENCE_S = 0.8e-3
PROBE_ROUNDS = 600
#: 5% of host time goes to probes.  At 2% (every 40 ms) the sampling
#: error of the mean probe time was the larger part of the run-to-run
#: spread of `req_per_s`: probe times scatter by 10-50% around their
#: mean with no correlation from one to the next.
PROBE_EVERY_S = 0.016
#: requests due per replay slice at the workload's highest rate; few
#: enough that a slice takes less host time than `PROBE_EVERY_S`
SLICE_REQUESTS = 16


class _ProbeEvent:
    __slots__ = ("callbacks", "value")

    def __init__(self) -> None:
        self.callbacks: List[int] = []
        self.value: Any = None


def host_probe() -> float:
    """Host seconds for a fixed piece of work shaped like the
    simulator's: allocate small objects, push and pop heap tuples,
    fill a dict with string keys.  The collector is held off meanwhile:
    a collection landing inside the probe would charge it for the
    program's heap."""
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    heap: List[Any] = []
    table: Dict[str, Any] = {}
    for index in range(PROBE_ROUNDS):
        event = _ProbeEvent()
        event.callbacks.append(index)
        heappush(heap, ((index * 7919) % 1000 * 0.001, 1, index, event))
        table[f"k{index % 97}"] = event
    while heap:
        _, _, _, event = heappop(heap)
        event.value = event.callbacks
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


def _host_speed(probes: List[float]) -> float:
    """Reference probe time over the mean probe time, the slowest tenth
    of the probes left out: a probe the scheduler preempted says
    something about that instant only."""
    if not probes:
        return 1.0
    kept = sorted(probes)[:max(1, len(probes) - len(probes) // 10)]
    return PROBE_REFERENCE_S * len(kept) / sum(kept)


@dataclass
class Unit:
    """Everything one replay produced, host clock and simulated."""

    steps: Sequence[Step]
    # host clock
    build_s: float
    inputs_s: float
    #: replay + drain, probes excluded
    replay_s: float
    replay_cpu_s: float
    gc_s: float
    #: reference probe time / mean probe time during this replay: below
    #: 1 when the host ran slower than the reference (1.0 if unprobed)
    host_speed: float
    # exact for a seed
    submitted: int
    events: int
    sim_duration_s: float
    peak_heap_depth: int
    #: per answered request, in completion order
    latencies_s: List[float] = field(default_factory=list)
    grades: List[str] = field(default_factory=list)
    step_of: List[int] = field(default_factory=list)
    #: requests the trace sends in each step
    step_submitted: List[int] = field(default_factory=list)
    #: requests in flight when each step ends
    step_end_in_flight: List[int] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    tracer: Any = None

    @property
    def answered(self) -> int:
        """Requests that got an answer that is not a refusal."""
        return sum(1 for grade in self.grades if grade != "error")

    @property
    def failed(self) -> int:
        return self.submitted - self.answered

    @property
    def replay_ref_s(self) -> float:
        """Replay time restated at the reference host speed."""
        return self.replay_s * self.host_speed

    def exact(self) -> Dict[str, float]:
        """The counts a traced or planted-slowdown run must reproduce
        bit for bit."""
        return {"submitted": self.submitted, "answered": self.answered,
                "failed": self.failed, "events": self.events,
                "latency_sum_s": sum(self.latencies_s)}


class _GcClock:
    """Host seconds spent inside the cyclic collector."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, _info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.total_s += time.perf_counter() - self._started


def run_unit(workload: Workload, seed: int, scale: float = 1.0, *,
             trace_sample_every: Optional[int] = None,
             around_replay: Optional[Callable[[Callable[[], None]],
                                              None]] = None,
             probe: bool = True) -> Unit:
    """Set up and replay one unit of ``workload``.

    ``trace_sample_every`` installs the program's own span tracer at
    that sampling rate; ``around_replay`` receives the replay as a
    callable and must call it once (a profiler, a counter).  A
    profiled replay passes ``probe=False``: the profiler would see the
    host-speed probes too.
    """
    steps = scaled(workload.steps, scale)
    gc.collect()  # the previous unit's deployment, before building anew
    started = time.perf_counter()
    deployment = workload.build(derive(seed, "deployment"), scale)
    built = time.perf_counter()
    records = workload.inputs(seed, steps)
    generated = time.perf_counter()
    if not records:
        raise ValueError(f"scale {scale} leaves {workload.name} no input")

    cluster = deployment.cluster
    env = cluster.env
    tracer = None
    if trace_sample_every is not None:
        tracer = install_tracer(cluster, sample_every=trace_sample_every)

    # step boundaries on the simulated clock: play() anchors the first
    # record at `origin`
    origin = env.now
    trace_start = origin - records[0].timestamp
    bounds, edge = [], trace_start
    for _, duration in steps:
        edge += duration
        bounds.append(edge)
    step_submitted = [0] * len(steps)
    for record in records:
        step_submitted[min(bisect_right(bounds, trace_start
                                        + record.timestamp),
                           len(steps) - 1)] += 1

    latencies: List[float] = []
    grades: List[str] = []
    step_of: List[int] = []
    grade = deployment.grade
    last_step = len(steps) - 1

    def on_answer(response: Any, latency_s: float) -> None:
        latencies.append(latency_s)
        grades.append(grade(response))
        step_of.append(min(bisect_right(bounds, env._now - latency_s),
                           last_step))

    engine = PlaybackEngine(env, deployment.submit,
                            timeout_s=workload.client_timeout_s,
                            record_outcomes=False, on_success=on_answer)
    if deployment.arm is not None:
        deployment.arm(trace_start, steps)

    step_end_in_flight: List[int] = []
    peak_heap = 0
    probes: List[float] = []
    slice_s = min(1.0, SLICE_REQUESTS / max(rate for rate, _ in steps))

    def replay() -> None:
        nonlocal peak_heap
        player = env.process(engine.play(records, time_offset=origin))
        # every request is answered or given up on by this time
        horizon = (origin + records[-1].timestamp - records[0].timestamp
                   + workload.client_timeout_s + 1.0)
        heap = env._heap
        now = origin
        next_probe = time.perf_counter()
        while now < horizon:
            now += slice_s
            if len(step_end_in_flight) < len(bounds):
                # stop exactly on the step's end to read what is in flight
                now = min(now, bounds[len(step_end_in_flight)])
            cluster.run(until=now)
            if probe and time.perf_counter() >= next_probe:
                probes.append(host_probe())
                next_probe = time.perf_counter() + PROBE_EVERY_S
            if len(heap) > peak_heap:
                peak_heap = len(heap)
            while len(step_end_in_flight) < len(bounds) \
                    and now >= bounds[len(step_end_in_flight)]:
                step_end_in_flight.append(engine.in_flight)
            if player.processed and engine.in_flight == 0 \
                    and len(step_end_in_flight) == len(bounds):
                break

    gc_clock = _GcClock()
    gc.collect()
    gc.callbacks.append(gc_clock)
    events_before = env._seq
    cpu_before = time.process_time()
    replay_started = time.perf_counter()
    try:
        if around_replay is None:
            replay()
        else:
            around_replay(replay)
    finally:
        replay_s = time.perf_counter() - replay_started - sum(probes)
        replay_cpu_s = time.process_time() - cpu_before - sum(probes)
        gc.callbacks.remove(gc_clock)

    stats = engine.stats
    if stats.submitted != len(records) or engine.in_flight != 0 \
            or stats.submitted != stats.completed + stats.failed \
            or stats.completed != len(latencies):
        raise RuntimeError(
            f"{workload.name}: requests unaccounted for "
            f"(sent {stats.submitted} of {len(records)}, answered "
            f"{stats.completed}, timed out {stats.failed}, in flight "
            f"{engine.in_flight})")
    return Unit(
        steps=steps, build_s=built - started, inputs_s=generated - built,
        replay_s=replay_s, replay_cpu_s=replay_cpu_s,
        gc_s=gc_clock.total_s,
        host_speed=_host_speed(probes),
        submitted=stats.submitted,
        events=env._seq - events_before,
        sim_duration_s=env.now - origin, peak_heap_depth=peak_heap,
        latencies_s=latencies, grades=grades, step_of=step_of,
        step_submitted=step_submitted,
        step_end_in_flight=step_end_in_flight,
        counters=deployment.counters(), tracer=tracer)
