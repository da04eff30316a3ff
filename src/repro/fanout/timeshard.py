"""Time-sharded single-run trace replay.

The other fan-out axes in this package parallelize *many* independent
simulations (grid points, campaign repetitions, benchmark seeds).  This
module parallelizes **one long replay**: a multi-million-request trace
is split into contiguous time windows, each window replays in its own
worker process against its own fresh service instance, and the window
aggregates merge into one result — so ``--jobs N`` accelerates a single
10M-request run instead of only batches of runs.

What makes the split sound is the trace generator's bucket determinism
(:class:`~repro.workload.tracegen.TraceGenerator`): every one-second
bucket of the arrival process derives its RNG stream from ``(seed,
bucket)`` alone, so any window ``[a, b)`` regenerates exactly the
records the full-trace run would see there, with **no RNG hand-off
state** between shards.  Three explicit hand-off mechanisms cover the
rest of the window edges:

* **RNG stream positions** — eliminated by construction (per-bucket
  derivation), nothing to ship;
* **warm state** — each shard replays an *uncounted* ``warmup_s``
  lead-in before its window so queues and in-flight population at the
  window start approximate the steady state the serial run would have
  (the first window of the trace has no lead-in, exactly like the
  serial run's own cold start);
* **in-flight drain** — each shard runs its simulation to event-heap
  exhaustion after the last window record, so every submitted request
  completes inside its own shard and ``completed`` merges exactly.

The correctness contract is *toleranced*, not byte-exact, and
:func:`drift_check` states it precisely: submitted / completed / failed
counts must merge **exactly** equal to the serial run's, while mean
latency may drift within a small relative tolerance — the residual
boundary effect of warm-up approximating (rather than replaying) the
cross-window queue state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.fanout.pool import run_sharded
from repro.fanout.shard import ShardSpec
from repro.sim.kernel import Environment
from repro.sim.network import MBPS, Network
from repro.workload.playback import PlaybackEngine
from repro.workload.tracegen import TraceGenerator

__all__ = [
    "ReplaySpec",
    "WindowResult",
    "ShardedReplayResult",
    "DriftReport",
    "drift_check",
    "replay_serial",
    "replay_sharded",
    "run_window",
    "window_edges",
    "_queue_san_service",
]


# -- the replayed service ----------------------------------------------------

#: servers draining the replay service's one queue.
N_SERVERS = 8


def _queue_san_service(env: Environment,
                       spec: "ReplaySpec") -> Callable:
    """The service every window replays against, built fresh inside the
    shard's own Environment: a shared queue drained by ``N_SERVERS``
    workers, each reply paying the SAN transfer delay for the content —
    the one ``benchmarks/test_bench_kernel.py`` replays against too.
    Servers are callback-driven (dequeue, schedule the reply, re-arm)
    so a request costs no generator resumes on the service side.
    Returns the submit adapter.
    """
    network = Network(env, bandwidth_bps=spec.bandwidth_mbps * MBPS)
    requests = env.queue()

    def _reply_ok(event):
        event._value.succeed("ok")

    def _serve(event):
        record, reply = event._value
        delay = network.transfer_delay(record.size_bytes)
        env.schedule_call(delay, _reply_ok, reply)
        requests.get().callbacks.append(_serve)

    for _ in range(N_SERVERS):
        requests.get().callbacks.append(_serve)

    def submit(record):
        reply = env.event()
        requests.put_nowait((record, reply))
        return reply

    return submit


# -- specs and results -------------------------------------------------------


@dataclass(frozen=True)
class ReplaySpec:
    """One time-shardable replay: the trace model plus the service.

    Frozen and module-level so it pickles into worker processes intact.
    The generated trace is fully determined by ``(seed, n_users,
    mean_rate_rps, with_daily_cycle, with_bursts)`` — two shards built
    from equal specs regenerate identical windows.
    """

    duration_s: float
    seed: int = 1997
    mean_rate_rps: float = 2000.0
    n_users: int = 2000
    with_daily_cycle: bool = False
    with_bursts: bool = True
    bandwidth_mbps: float = 1000.0
    #: uncounted lead-in replayed before each window (except the first)
    #: to approximate the serial run's warm queue state at the edge.
    warmup_s: float = 2.0

    def generator(self) -> TraceGenerator:
        return TraceGenerator(
            seed=self.seed,
            n_users=self.n_users,
            mean_rate_rps=self.mean_rate_rps,
            with_daily_cycle=self.with_daily_cycle,
            with_bursts=self.with_bursts,
        )


@dataclass
class WindowResult:
    """Aggregate outcome of one replayed window (or the whole trace)."""

    start_s: float
    end_s: float
    submitted: int
    completed: int
    failed: int
    latency_sum: float
    latency_min: float
    latency_max: float
    max_in_flight: int
    n_events: int
    sim_end: float

    @property
    def mean_latency(self) -> Optional[float]:
        if not self.completed:
            return None
        return self.latency_sum / self.completed


@dataclass
class ShardedReplayResult:
    """All windows of one sharded replay plus the exact-merged totals."""

    windows: List[WindowResult]
    merged: WindowResult
    jobs: int
    elapsed_s: float = 0.0
    window_elapsed_s: List[float] = field(default_factory=list)


@dataclass
class DriftReport:
    """Sharded-vs-serial comparison under the tolerance contract."""

    ok: bool
    checks: List[str]
    mean_latency_rel_diff: float


# -- the per-window unit (module-level: pickled into workers) ----------------


def run_window(spec: ReplaySpec, start_s: float,
               end_s: float) -> WindowResult:
    """Replay one window of the spec's trace in a fresh simulation.

    Counted records are exactly the trace restricted to
    ``[start_s, end_s)``.  A window starting mid-trace first replays an
    uncounted ``warmup_s`` lead-in through a throwaway engine sharing
    the same service, then runs to event-heap exhaustion so every
    counted request drains inside this window.
    """
    if not 0.0 <= start_s < end_s <= spec.duration_s:
        raise ValueError(
            f"window [{start_s}, {end_s}) outside trace "
            f"[0, {spec.duration_s})")
    env = Environment()
    submit = _queue_san_service(env, spec)
    generator = spec.generator()

    warm_start = max(0.0, start_s - spec.warmup_s)
    # the simulation clock starts at 0 == warm_start on the trace
    # timeline, so warm-up and counted records pace each other exactly
    # as the unsharded run would
    clock_origin = warm_start
    engine = PlaybackEngine(env, submit, record_outcomes=False)

    # two callback-driven arrival pumps on the same absolute timeline:
    # every warm-up timestamp precedes every counted one, so the pumps
    # interleave exactly as one sequential player would
    if warm_start < start_s:
        warm_engine = PlaybackEngine(env, submit,
                                     record_outcomes=False)
        warm_engine.play_scheduled(
            generator.iter_generate(start_s - warm_start,
                                    start_s=warm_start),
            clock_origin)
    engine.play_scheduled(
        generator.iter_generate(end_s - start_s, start_s=start_s),
        clock_origin)
    env.run()  # to exhaustion: drains all in-flight requests
    stats = engine.stats
    return WindowResult(
        start_s=start_s,
        end_s=end_s,
        submitted=stats.submitted,
        completed=stats.completed,
        failed=stats.failed,
        latency_sum=stats.latency_sum,
        latency_min=stats.latency_min,
        latency_max=stats.latency_max,
        max_in_flight=engine.max_in_flight,
        n_events=env._seq,
        sim_end=env.now,
    )


# -- window planning and merge -----------------------------------------------


def window_edges(duration_s: float, n_windows: int) -> List[float]:
    """Contiguous edges covering ``[0, duration_s)`` in ``n_windows``.

    Interior edges snap to whole seconds when the trace is long enough
    — windows then align with the generator's one-second buckets and
    no bucket is regenerated by two shards — falling back to exact
    fractional splits for short traces.  Correctness never depends on
    the alignment (partial buckets filter by timestamp); only shard
    cost does.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if n_windows < 1:
        raise ValueError("need at least one window")
    raw = [duration_s * index / n_windows
           for index in range(1, n_windows)]
    snapped = [float(round(edge)) for edge in raw]
    edges = [0.0] + snapped + [float(duration_s)]
    if any(b <= a for a, b in zip(edges, edges[1:])):
        edges = [0.0] + raw + [float(duration_s)]
    return edges


def _merge_windows(windows: Sequence[WindowResult]) -> WindowResult:
    merged = WindowResult(
        start_s=windows[0].start_s,
        end_s=windows[-1].end_s,
        submitted=0, completed=0, failed=0,
        latency_sum=0.0, latency_min=float("inf"), latency_max=0.0,
        max_in_flight=0, n_events=0, sim_end=0.0,
    )
    for window in windows:
        merged.submitted += window.submitted
        merged.completed += window.completed
        merged.failed += window.failed
        merged.latency_sum += window.latency_sum
        merged.latency_min = min(merged.latency_min, window.latency_min)
        merged.latency_max = max(merged.latency_max, window.latency_max)
        merged.max_in_flight = max(merged.max_in_flight,
                                   window.max_in_flight)
        merged.n_events += window.n_events
        merged.sim_end = max(merged.sim_end, window.sim_end)
    return merged


# -- entry points ------------------------------------------------------------


def replay_serial(spec: ReplaySpec) -> WindowResult:
    """The whole trace in one window, in-process — the reference run."""
    return run_window(spec, 0.0, spec.duration_s)


def replay_sharded(spec: ReplaySpec, jobs: int,
                   n_windows: Optional[int] = None,
                   timeout_s: Optional[float] = None
                   ) -> ShardedReplayResult:
    """One replay, time-sharded across ``jobs`` worker processes.

    ``n_windows`` defaults to ``jobs`` (one window per worker); more
    windows than jobs trades per-window warm-up overhead for better
    load balance on skewed traces.  Any failed shard raises
    :class:`~repro.fanout.shard.FanoutError` — a replay with a missing
    window is not a partial result, it is no result.
    """
    n_windows = n_windows if n_windows is not None else max(1, jobs)
    edges = window_edges(spec.duration_s, n_windows)
    specs = [
        ShardSpec(
            shard_id=f"replay[{start:g},{end:g})",
            fn=run_window,
            args=(spec, start, end),
        )
        for start, end in zip(edges, edges[1:])
    ]
    sweep = run_sharded(specs, jobs=jobs, timeout_s=timeout_s)
    windows = sweep.values()  # raises FanoutError on any failed shard
    return ShardedReplayResult(
        windows=windows,
        merged=_merge_windows(windows),
        jobs=jobs,
        window_elapsed_s=[result.elapsed_s for result in sweep.results],
    )


def drift_check(serial: WindowResult, sharded: WindowResult,
                latency_tolerance: float = 0.05) -> DriftReport:
    """The sharded-replay tolerance contract, checked.

    Exact: ``submitted``, ``completed`` and ``failed`` — bucket
    determinism plus per-shard drain make the counts invariant under
    any window split.  Toleranced: mean latency within
    ``latency_tolerance`` relative — window-edge warm-up approximates
    the serial run's queue state instead of replaying it.
    """
    checks: List[str] = []
    ok = True
    for name in ("submitted", "completed", "failed"):
        serial_value = getattr(serial, name)
        sharded_value = getattr(sharded, name)
        if serial_value == sharded_value:
            checks.append(f"{name}: {serial_value} == {sharded_value}")
        else:
            ok = False
            checks.append(f"{name}: MISMATCH serial {serial_value} "
                          f"!= sharded {sharded_value}")
    serial_mean = serial.mean_latency or 0.0
    sharded_mean = sharded.mean_latency or 0.0
    if serial_mean > 0:
        rel = abs(sharded_mean - serial_mean) / serial_mean
    else:
        rel = 0.0 if sharded_mean == 0.0 else float("inf")
    if rel <= latency_tolerance:
        checks.append(f"mean latency: {sharded_mean * 1e3:.3f}ms vs "
                      f"{serial_mean * 1e3:.3f}ms "
                      f"(rel {rel:.4f} <= {latency_tolerance:g})")
    else:
        ok = False
        checks.append(f"mean latency: DRIFT {sharded_mean * 1e3:.3f}ms "
                      f"vs {serial_mean * 1e3:.3f}ms "
                      f"(rel {rel:.4f} > {latency_tolerance:g})")
    return DriftReport(ok=ok, checks=checks, mean_latency_rel_diff=rel)
