"""Time-sharded 10M-request replay benchmark (ISSUE 10 tentpole).

Replays one long generated trace against the queue-SAN service twice —
once serially, once split into contiguous time windows fanned across
worker processes — and records both to ``BENCH_replay.json``.  The
committed file is the baseline; ``benchmarks/perf_gate.py --replay``
enforces (a) the normalized serial throughput floor, (b) the drift
contract (window merge must reproduce the serial totals exactly), and
(c) the >=2x sharded speedup at 4 jobs on machines with at least
4 cores.  Smaller boxes record honest numbers (``cpu_count`` travels
with the measurement) and the gate skips the speedup floor there.

The drift check costs nothing extra: the serial run *is* the
reference, so correctness of the time-shard handoff (bucket-aligned
window edges, uncounted warmup lead-in, per-shard drain to
exhaustion) is verified on every benchmark run.

Environment knobs:

* ``BENCH_REPLAY_SCALE`` — scales the trace duration; 1.0 is the full
  10M-request replay (2000 req/s x 5000 s), CI smoke uses ~0.01;
* ``BENCH_REPLAY_JOBS`` — pool width for the sharded run (default 4);
* ``BENCH_REPLAY_OUT`` — output path (default ``<repo>/BENCH_replay.json``).
"""

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import calibrate
from repro.fanout.timeshard import (
    ReplaySpec,
    drift_check,
    replay_serial,
    replay_sharded,
)

SCALE = float(os.environ.get("BENCH_REPLAY_SCALE", "1.0"))
JOBS = int(os.environ.get("BENCH_REPLAY_JOBS", "4"))
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_replay.json"
OUT_PATH = Path(os.environ.get("BENCH_REPLAY_OUT", str(DEFAULT_OUT)))

#: 2000 req/s x 5640 s at scale 1.0 — the bursty arrival process
#: realizes ~10M requests for this seed.
MEAN_RATE_RPS = 2000.0
FULL_DURATION_S = 5640.0


def test_replay_10m(benchmark):
    duration_s = max(FULL_DURATION_S * SCALE, 20.0)
    spec = ReplaySpec(duration_s=duration_s, mean_rate_rps=MEAN_RATE_RPS)
    replay_serial(ReplaySpec(duration_s=20.0,
                             mean_rate_rps=MEAN_RATE_RPS))  # warm-up

    result_holder = {}

    def measure():
        start = time.perf_counter()
        serial = replay_serial(spec)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        sharded = replay_sharded(spec, jobs=JOBS)
        sharded_s = time.perf_counter() - start
        result_holder.update(serial=serial, serial_s=serial_s,
                             sharded=sharded, sharded_s=sharded_s)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    serial = result_holder["serial"]
    sharded = result_holder["sharded"]
    serial_s = result_holder["serial_s"]
    sharded_s = result_holder["sharded_s"]

    report = drift_check(serial, sharded.merged)
    speedup = serial_s / sharded_s if sharded_s else float("inf")
    payload = {
        "benchmark": "replay10m",
        "schema": 1,
        "scale": SCALE,
        "calibration_ops_per_sec": round(calibrate()),
        "cpu_count": os.cpu_count() or 1,
        "replay": {
            "duration_s": duration_s,
            "mean_rate_rps": MEAN_RATE_RPS,
            "requests": serial.submitted,
            "serial_s": round(serial_s, 3),
            "requests_per_sec": round(serial.submitted / serial_s, 1),
            "jobs": JOBS,
            "n_windows": len(sharded.windows),
            "sharded_s": round(sharded_s, 3),
            "speedup": round(speedup, 2),
            "drift_ok": report.ok,
            "latency_rel_diff": round(report.mean_latency_rel_diff, 6),
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
    print(f"\nBENCH_replay -> {OUT_PATH}")
    print(json.dumps(payload, indent=2))
    for line in report.checks:
        print(f"drift: {line}")

    benchmark.extra_info["requests_per_sec"] = (
        payload["replay"]["requests_per_sec"])
    benchmark.extra_info["speedup"] = payload["replay"]["speedup"]
    benchmark.extra_info["drift_ok"] = report.ok
    # correctness is unconditional; the speedup floor is the gate's
    # job (it knows whether this machine has the cores to show it)
    assert report.ok, "\n".join(report.checks)
    assert serial.failed == 0 and sharded.merged.failed == 0
