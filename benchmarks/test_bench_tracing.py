"""Span-tracing overhead benchmark.

The tracing subsystem promises near-zero cost: disabled runs touch one
``is None`` check per instrumentation site, and sampled runs only
append spans (no RNG, no extra sim events).  This benchmark holds it
to that: sampled tracing must add less than 10% wall clock to the
end-to-end experiment.
"""

import time
from typing import Tuple

from repro.experiments.endtoend_latency import run_endtoend
from repro.obs import capture_traces

N_REQUESTS = 200
SEED = 1997
ROUNDS = 5


def _run_untraced() -> None:
    run_endtoend(n_requests=N_REQUESTS, seed=SEED)


def _run_traced(sample_every: int) -> Tuple[int, int]:
    """(requests sampled, requests submitted), over both arms."""
    with capture_traces(sample_every=sample_every) as tracers:
        run_endtoend(n_requests=N_REQUESTS, seed=SEED)
    return (sum(tracer.requests_sampled for tracer in tracers),
            sum(tracer.requests_seen for tracer in tracers))


def _best_of(fn, rounds: int = ROUNDS) -> float:
    """Minimum wall-clock over several rounds: the noise-robust
    estimator for 'how fast can this go' comparisons."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_sampled_tracing_overhead_under_ten_percent(benchmark):
    _run_untraced()  # warm imports and caches out of the measurement

    # interleave the two variants so drift (thermal, scheduler) hits
    # both equally instead of biasing whichever ran second
    untraced = float("inf")
    traced = float("inf")
    for _ in range(ROUNDS):
        untraced = min(untraced, _best_of(_run_untraced, rounds=1))
        traced = min(traced, _best_of(lambda: _run_traced(10),
                                      rounds=1))

    def measured():
        _run_traced(10)

    benchmark.pedantic(measured, rounds=1, iterations=1)
    overhead = traced / untraced - 1.0
    benchmark.extra_info["untraced_s"] = round(untraced, 4)
    benchmark.extra_info["traced_s"] = round(traced, 4)
    benchmark.extra_info["overhead"] = f"{overhead:+.1%}"
    assert traced < untraced * 1.10, (
        f"sampled tracing added {overhead:+.1%} wall clock "
        f"(untraced {untraced:.3f}s, traced {traced:.3f}s)")


def test_full_tracing_still_samples_every_request(benchmark):
    def measured():
        return _run_traced(1)

    sampled, submitted = benchmark.pedantic(measured, rounds=1,
                                            iterations=1)
    # both arms of the experiment trace every request they submitted
    # (`N_REQUESTS` is nominal: an arm replays the ~197 records the
    # generator makes for N_REQUESTS / 4 seconds at 4 requests/s)
    assert sampled == submitted > N_REQUESTS
    benchmark.extra_info["requests_sampled"] = sampled
