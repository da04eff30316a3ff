"""Kernel throughput benchmark: the committed perf trajectory.

Three phases, one JSON:

1. **Queue-heavy microbench** (events/sec): bursty producers drive
   consumer processes through deep :class:`~repro.sim.kernel.Queue`
   backlogs — the regime a saturated worker hits during a
   million-request overload, and exactly where the pre-deque kernel's
   ``list.pop(0)`` went quadratic.
2. **Timer-coalescing microbench** (ticks/sec): N same-period
   maintenance loops as processes vs as one coalesced periodic bucket
   (:meth:`~repro.sim.kernel.Environment.periodic`).
3. **Streaming trace replay** (requests/sec): a 1M-request synthetic
   fixed-JPEG trace (Section 4.6's scalability workload) streams through
   the playback engine in bounded memory — the trace is generated
   lazily, outcomes are aggregated instead of recorded — against a
   queue + network-delay service adapter.

Results are written to ``BENCH_kernel.json`` at the repo root.  That
file is committed: it is the regression baseline every future PR is
gated against (see ``benchmarks/perf_gate.py`` and the CI ``perf-smoke``
job).  A machine-speed calibration number (a fixed pure-Python spin
loop) is stored alongside the rates so the gate can normalize across
differently-sized runners.

Environment knobs:

* ``BENCH_KERNEL_SCALE`` — scales workload sizes (CI uses 0.1);
* ``BENCH_KERNEL_OUT`` — output path (default ``<repo>/BENCH_kernel.json``).
"""

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import calibrate
from repro.fanout.timeshard import ReplaySpec, _queue_san_service
from repro.sim.kernel import Environment
from repro.workload.playback import PlaybackEngine
from repro.workload.tracegen import iter_fixed_jpeg_trace

SCALE = float(os.environ.get("BENCH_KERNEL_SCALE", "1.0"))
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"
OUT_PATH = Path(os.environ.get("BENCH_KERNEL_OUT", str(DEFAULT_OUT)))

# -- phase 1: queue-heavy events/sec ---------------------------------------


def _bursty_producer(env, queue, bursts, burst_size, period):
    for _ in range(bursts):
        yield env.timeout(period)
        for item in range(burst_size):
            queue.put_nowait(item)


def _consumer(env, queue, n_items, service_s):
    for _ in range(n_items):
        yield queue.get()
        yield env.timeout(service_s)


def run_queue_heavy(scale: float = 1.0) -> dict:
    """Deep-backlog producer/consumer churn; returns events/sec."""
    pairs = 2
    bursts = 2
    burst_size = max(100, int(25_000 * scale))
    env = Environment()
    n_items = bursts * burst_size
    for _ in range(pairs):
        queue = env.queue()
        env.process(_bursty_producer(env, queue, bursts, burst_size, 0.5))
        env.process(_consumer(env, queue, n_items, 0.0001))
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    return {
        "n_events": env._seq,
        "max_backlog": burst_size,
        "elapsed_s": round(elapsed, 3),
        "events_per_sec": round(env._seq / elapsed),
    }


# -- phase 2: coalesced periodic timers, ticks/sec --------------------------


def _timer_loop(env, period, counter):
    """The pre-coalescing shape: one process + one timeout per tick."""
    while True:
        yield env.timeout(period)
        counter[0] += 1


def run_timer_coalescing(scale: float = 1.0) -> dict:
    """N same-period maintenance loops: process loops vs one bucket.

    This is the cluster's beacon/report/watchdog pattern at population
    scale — every front end, worker stub, and supervisor used to own a
    ``while True: yield timeout(T)`` process.  The coalesced path drives
    all N callbacks from a single recurring heap event per interval.
    """
    n_timers = 256
    sim_s = max(20.0, 400.0 * scale)

    env = Environment()
    loop_count = [0]
    for _ in range(n_timers):
        env.process(_timer_loop(env, 1.0, loop_count))
    start = time.perf_counter()
    env.run(until=sim_s)
    loop_elapsed = time.perf_counter() - start
    loop_events = env._seq

    env = Environment()
    coalesced_count = [0]

    def _tick():
        coalesced_count[0] += 1

    for _ in range(n_timers):
        env.periodic(1.0, _tick)
    start = time.perf_counter()
    env.run(until=sim_s)
    coalesced_elapsed = time.perf_counter() - start
    coalesced_events = env._seq

    assert coalesced_count[0] == loop_count[0]  # same tick trajectory
    ticks = loop_count[0]
    return {
        "n_timers": n_timers,
        "sim_seconds": sim_s,
        "ticks": ticks,
        "loop_events": loop_events,
        "coalesced_events": coalesced_events,
        "loop_ticks_per_sec": round(ticks / loop_elapsed),
        "coalesced_ticks_per_sec": round(ticks / coalesced_elapsed),
        "event_reduction": round(loop_events / coalesced_events, 1),
    }


# -- phase 3: streaming 1M-request replay, requests/sec --------------------


def run_trace_replay(scale: float = 1.0) -> dict:
    """Replay a synthetic 1M-request trace end-to-end, streaming."""
    n_requests = max(1_000, int(1_000_000 * scale))
    rate_rps = 4_000.0  # keeps sim duration ~n/4000 s, backlog modest
    env = Environment()
    # the time-shard replay's service: 8 callback-style servers on one
    # queue, each reply paying a 1 Gb/s SAN transfer
    submit = _queue_san_service(
        env, ReplaySpec(duration_s=n_requests / rate_rps))
    engine = PlaybackEngine(env, submit, record_outcomes=False)
    trace = iter_fixed_jpeg_trace(rate_rps, n_requests, seed=1997)
    engine.play_scheduled(trace)
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    stats = engine.stats
    assert stats.submitted == n_requests
    assert stats.completed == n_requests
    assert engine.outcomes == []  # bounded memory: nothing recorded
    return {
        "n_requests": n_requests,
        "n_events": env._seq,
        "sim_seconds": round(env.now, 1),
        "elapsed_s": round(elapsed, 3),
        "requests_per_sec": round(n_requests / elapsed),
        "events_per_sec": round(env._seq / elapsed),
        "mean_latency_ms": round(stats.mean_latency * 1000, 3),
    }


# -- the benchmark ---------------------------------------------------------


def test_kernel_throughput(benchmark):
    run_queue_heavy(scale=min(SCALE, 0.02))  # warm-up, unmeasured

    def measure():
        return {
            "queue_heavy": run_queue_heavy(SCALE),
            "timer_coalescing": run_timer_coalescing(SCALE),
            "trace_replay": run_trace_replay(SCALE),
        }

    result_holder = {}

    def wrapper():
        result_holder["result"] = measure()

    benchmark.pedantic(wrapper, rounds=1, iterations=1)
    result = result_holder["result"]

    payload = {
        "benchmark": "kernel",
        "schema": 1,
        "scale": SCALE,
        "calibration_ops_per_sec": round(calibrate()),
        **result,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
    print(f"\nBENCH_kernel -> {OUT_PATH}")
    print(json.dumps(payload, indent=2))

    benchmark.extra_info["events_per_sec"] = \
        result["queue_heavy"]["events_per_sec"]
    benchmark.extra_info["requests_per_sec"] = \
        result["trace_replay"]["requests_per_sec"]
    # sanity floors (far below any real machine, catches pathologies)
    assert result["queue_heavy"]["events_per_sec"] > 10_000
    assert result["trace_replay"]["requests_per_sec"] > 1_000
    # the whole point of coalescing: far fewer kernel events per tick
    assert result["timer_coalescing"]["event_reduction"] > 2
