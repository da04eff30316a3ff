"""Fan-out runner speedup benchmark (ISSUE 5 acceptance criterion).

Runs the same chaos campaign batch serially and through the process
pool, verifies the outputs are byte-identical, and records the wall
clock speedup to ``BENCH_fanout.json``.  That file is committed as the
baseline; ``benchmarks/perf_gate.py --fanout`` enforces the >=1.8x
floor at 4 jobs — but only on machines with at least 4 cores (the
``cpu_count`` field travels with the measurement, so a 1-core box
records honest numbers without tripping the gate).

Environment knobs:

* ``BENCH_FANOUT_RUNS`` — batch size (default 8 campaign runs);
* ``BENCH_FANOUT_JOBS`` — pool width (default 4);
* ``BENCH_FANOUT_OUT`` — output path (default ``<repo>/BENCH_fanout.json``).
"""

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import calibrate
from repro.chaos import run_campaign_batch

RUNS = int(os.environ.get("BENCH_FANOUT_RUNS", "8"))
JOBS = int(os.environ.get("BENCH_FANOUT_JOBS", "4"))
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_fanout.json"
OUT_PATH = Path(os.environ.get("BENCH_FANOUT_OUT", str(DEFAULT_OUT)))


def _timed_batch(jobs: int):
    start = time.perf_counter()
    batch = run_campaign_batch("smoke", master_seed=1997, runs=RUNS,
                               jobs=jobs)
    return batch, time.perf_counter() - start


def test_fanout_speedup(benchmark):
    run_campaign_batch("smoke", master_seed=1997, runs=1)  # warm-up

    result_holder = {}

    def measure():
        serial, serial_s = _timed_batch(1)
        parallel, parallel_s = _timed_batch(JOBS)
        result_holder.update(serial=serial, serial_s=serial_s,
                             parallel=parallel, parallel_s=parallel_s)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    serial = result_holder["serial"]
    parallel = result_holder["parallel"]
    serial_s = result_holder["serial_s"]
    parallel_s = result_holder["parallel_s"]

    byte_identical = (serial.render(verbose=True)
                      == parallel.render(verbose=True))
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    payload = {
        "benchmark": "fanout",
        "schema": 1,
        "calibration_ops_per_sec": round(calibrate()),
        "cpu_count": os.cpu_count() or 1,
        "sweep": {
            "campaign": "smoke",
            "runs": RUNS,
            "jobs": JOBS,
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(speedup, 2),
            "byte_identical": byte_identical,
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
    print(f"\nBENCH_fanout -> {OUT_PATH}")
    print(json.dumps(payload, indent=2))

    benchmark.extra_info["speedup"] = payload["sweep"]["speedup"]
    benchmark.extra_info["byte_identical"] = byte_identical
    # correctness is unconditional; the speedup floor is the gate's
    # job (it knows whether this machine has the cores to show it)
    assert byte_identical
    assert serial.harvest == 1.0 and parallel.harvest == 1.0
    assert serial.ok and parallel.ok
