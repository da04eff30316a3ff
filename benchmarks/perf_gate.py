"""Perf regression gate for the kernel and fan-out benchmarks.

Kernel mode compares a freshly measured ``BENCH_kernel.json`` against
the committed baseline and exits non-zero when throughput regressed
beyond the allowed fraction.  Rates are normalized by each file's
``calibration_ops_per_sec`` (a fixed pure-Python spin loop measured on
the same machine at the same time), so a slower CI runner is not
mistaken for a slower kernel.

Fan-out mode (``--fanout``) checks a fresh ``BENCH_fanout.json``:
the parallel batch must be byte-identical to the serial one
(unconditionally), and when the *runner* has at least 4 cores the
measured speedup at 4 jobs must clear the floor.  A smaller machine
records honest numbers but cannot demonstrate the speedup, so the
floor is skipped there rather than faked.  The skip decision is keyed
off the gate runner's own core count, never the count recorded in the
JSON: a measurement file recorded on a smaller machine must not waive
the floor on a machine that can demonstrate the speedup — it fails the
gate instead, telling you to regenerate the measurement here.

The fan-out gate prints a loud warning when the measurement file is a
1-core artifact: such a file carries honest correctness data but no
meaningful speedup, so it anchors nothing until regenerated on a
multi-core machine.

Usage::

    python benchmarks/perf_gate.py NEW.json [--baseline BENCH_kernel.json]
                                            [--max-regression 0.25]
    python benchmarks/perf_gate.py --fanout BENCH_fanout.json
                                            [--min-speedup 1.8]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: (label, path into the JSON) for each gated rate.
GATED = [
    ("queue-heavy events/sec", ("queue_heavy", "events_per_sec")),
    ("coalesced-timer ticks/sec",
     ("timer_coalescing", "coalesced_ticks_per_sec")),
]


def _rate(payload: dict, path) -> float:
    value = payload
    for key in path:
        value = value[key]
    return float(value)


def _normalized(payload: dict, path) -> float:
    return _rate(payload, path) / float(payload["calibration_ops_per_sec"])


def gate_fanout(path: Path, min_speedup: float, min_cores: int,
                runner_cores: int | None = None) -> int:
    payload = json.loads(path.read_text(encoding="utf-8"))
    sweep = payload["sweep"]
    recorded_cores = int(payload.get("cpu_count", 1))
    if recorded_cores <= 1:
        # its byte-identity field is still trustworthy, but a speedup
        # measured on one core is fork overhead, not parallel scaling
        print("=" * 64)
        print(f"WARNING: {path.name} was recorded on a single-core "
              "machine.")
        print("Its speedup figure reflects fork overhead, not parallel")
        print("scaling, and must not be read as a performance baseline.")
        print("Regenerate on a multi-core box: "
              "python -m pytest benchmarks/test_bench_fanout.py")
        print("=" * 64)
    runner = (runner_cores if runner_cores is not None
              else os.cpu_count() or 1)
    speedup = float(sweep["speedup"])
    print(f"fanout: {sweep['runs']} x {sweep['campaign']} at "
          f"{sweep['jobs']} jobs -> {speedup:.2f}x "
          f"({sweep['serial_s']:.2f}s serial, "
          f"{sweep['parallel_s']:.2f}s parallel) recorded on "
          f"{recorded_cores} core(s); gate runner has {runner}")
    if not sweep["byte_identical"]:
        print("FAIL: parallel output is not byte-identical to serial")
        return 1
    print("byte-identical: ok")
    if runner < min_cores:
        print(f"speedup floor skipped: runner has {runner} core(s) < "
              f"{min_cores} (cannot demonstrate parallel speedup)")
        print("perf gate passed")
        return 0
    if recorded_cores < min_cores:
        # the runner could demonstrate the speedup but the measurement
        # came from a machine that couldn't — a stale committed file
        # must not waive the floor here
        print(f"FAIL: measurement recorded on {recorded_cores} "
              f"core(s) but this runner has {runner}; regenerate "
              f"{path.name} on this machine "
              f"(python -m pytest benchmarks/test_bench_fanout.py)")
        return 1
    if speedup < min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below the "
              f"{min_speedup:.2f}x floor")
        return 1
    print(f"speedup floor: ok (>= {min_speedup:.2f}x)")
    print("perf gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new", type=Path, nargs="?",
                        help="freshly measured BENCH_kernel.json")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).resolve().parents[1]
                        / "BENCH_kernel.json",
                        help="committed baseline (default: repo root)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="maximum allowed fractional slowdown")
    parser.add_argument("--fanout", type=Path, default=None,
                        metavar="BENCH_fanout.json",
                        help="gate a fan-out speedup measurement "
                             "instead of the kernel throughput")
    parser.add_argument("--min-speedup", type=float, default=1.8,
                        help="fan-out speedup floor at 4 jobs "
                             "(default 1.8)")
    parser.add_argument("--min-cores", type=int, default=4,
                        help="skip the speedup floor when the runner "
                             "has fewer cores than this (default 4)")
    parser.add_argument("--runner-cores", type=int, default=None,
                        help="override the detected core count of this "
                             "machine (testing hook; default: "
                             "os.cpu_count())")
    args = parser.parse_args(argv)

    if args.fanout is not None:
        return gate_fanout(args.fanout, args.min_speedup,
                           args.min_cores,
                           runner_cores=args.runner_cores)
    if args.new is None:
        parser.error("NEW.json is required unless --fanout is given")

    new = json.loads(args.new.read_text(encoding="utf-8"))
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))

    failed = False
    for label, path in GATED:
        new_norm = _normalized(new, path)
        base_norm = _normalized(baseline, path)
        ratio = new_norm / base_norm if base_norm else float("inf")
        floor = 1.0 - args.max_regression
        verdict = "ok" if ratio >= floor else "REGRESSION"
        print(f"{label}: raw {_rate(new, path):.0f} vs baseline "
              f"{_rate(baseline, path):.0f} | normalized ratio "
              f"{ratio:.2f} (floor {floor:.2f}) -> {verdict}")
        if ratio < floor:
            failed = True

    if failed:
        print(f"FAIL: throughput regressed more than "
              f"{args.max_regression:.0%} vs {args.baseline}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
