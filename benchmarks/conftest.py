"""Benchmark harness helpers.

Every paper table/figure has one benchmark here.  Runs measure the full
experiment once (``rounds=1`` — these are simulations, not
microbenchmarks; their interesting output is the experiment result, not
the wall time) and attach the headline numbers to
``benchmark.extra_info`` so ``--benchmark-json`` captures the
reproduction data alongside timings.  Run with ``-s`` to see each
experiment rendered in the paper's shape.
"""

import time

CALIBRATION_OPS = 2_000_000


def calibrate() -> float:
    """Ops/sec of a fixed pure-Python loop: a machine-speed yardstick.

    The kernel, fan-out and replay benchmarks record it beside their
    rates, and the perf gate divides measured rates by it before
    comparing, so a slower CI runner does not read as a regression.
    """
    best = float("inf")
    for _ in range(3):
        total = 0
        start = time.perf_counter()
        for i in range(CALIBRATION_OPS):
            total += i
        best = min(best, time.perf_counter() - start)
    assert total  # keep the loop honest
    return CALIBRATION_OPS / best


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single measured round, returning its
    result."""
    result_holder = {}

    def wrapper():
        result_holder["result"] = fn(*args, **kwargs)

    benchmark.pedantic(wrapper, rounds=1, iterations=1)
    return result_holder["result"]
