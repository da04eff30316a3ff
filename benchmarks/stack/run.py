"""`stack`: the full-stack benchmark.  One command, one workload, one
process, every metric printed by name with its unit.

    python3 benchmarks/stack/run.py --workload transend_mix --seed 1997
    PYTHONPATH=src python -m benchmarks.stack.run --workload ... --trace 1

The first form is how BENCHMARK.json runs it: its command may name
nothing outside this directory, so it cannot set ``PYTHONPATH=src``,
and this file puts the checkout it sits in on the path itself.

``--trace 0`` (default) measures the end-to-end metrics with nothing
attached to the program; ``--trace 1`` replays a smaller unit under
`cProfile` and under the program's span tracer and prints the per-layer
ledger.  The last line of standard output is one JSON object.  See
README.md beside this file for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# the checkout this file sits in is the program being measured
for entry in (str(ROOT), str(ROOT / "src")):
    if entry in sys.path:
        sys.path.remove(entry)
    sys.path.insert(0, entry)

#: units whose simulated results are pooled into the simulated metrics;
#: always run, so those metrics are exact for a seed however fast the
#: host is.  Further units only add host-clock samples.
POOLED_UNITS = 3
#: the discarded warm-up unit and the traced units, relative to a unit
WARMUP_SCALE = 0.15
TRACE_SCALE = 0.25
SETUP_PROBES = 3
#: the `repro.obs.attribution` categories some workload spends
#: simulated time in; "client" (no delivery leg here) and "other" hold
#: none, which `measure_layers` checks
SIMTIME_CATEGORIES = ("queueing", "service", "network", "cache", "origin")

BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def unit_seed(seed: int, index: int) -> int:
    from benchmarks.stack.loadgen import derive
    return derive(seed, f"unit{index}")


# -- end-to-end ---------------------------------------------------------------

def probe_setup(workload_name: str, seed: int, scale: float) -> float:
    """Host seconds a fresh interpreter needs to get from nothing to a
    booted deployment with its inputs in hand (imports included)."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload_name, "--seed", str(seed), "--scale", repr(scale),
         "--setup-only"],
        check=True, stdout=subprocess.DEVNULL, cwd=str(ROOT))
    return time.perf_counter() - started


def step_report(workload: Any, units: Sequence[Any]) -> List[Dict[str, Any]]:
    """Per offered-rate step, pooled over ``units``: requests sent,
    failed share, p99 and whether the step met the workload's limit."""
    report = []
    for index, (rate, _duration) in enumerate(units[0].steps):
        latencies = sorted(
            latency * 1000.0 for unit in units
            for latency, grade, step in zip(unit.latencies_s, unit.grades,
                                            unit.step_of)
            if step == index and grade != "error")
        sent = sum(unit.step_submitted[index] for unit in units)
        p99 = percentile(latencies, 0.99) if latencies else float("inf")
        backlog = max(unit.step_end_in_flight[index] for unit in units)
        failed_share = 1.0 - len(latencies) / sent if sent else 1.0
        report.append({
            "rate_rps": rate, "sent": sent, "p99_ms": p99,
            "failed_share": failed_share, "end_in_flight": backlog,
            "ok": (p99 <= workload.p99_limit_ms and failed_share <= 0.01
                   and backlog <= rate * workload.p99_limit_ms / 1000.0),
        })
    return report


def max_ok_rate(steps: Sequence[Dict[str, Any]]) -> float:
    """Highest offered rate on the way up that met the limit, every
    lower step having met it too; 0 when the first step already fails."""
    best = 0.0
    for step in steps:
        if step["rate_rps"] < best:
            break  # past the top of the ramp
        if not step["ok"]:
            break
        best = step["rate_rps"]
    return best


def simulated_metrics(units: Sequence[Any]) -> Dict[str, float]:
    """Client-visible results on the simulated clock, pooled over
    ``units``; exact for a seed."""
    submitted = sum(unit.submitted for unit in units)
    latencies = sorted(
        latency * 1000.0 for unit in units
        for latency, grade in zip(unit.latencies_s, unit.grades)
        if grade != "error")
    full = sum(unit.grades.count("full") for unit in units)
    return {
        "sim_p50_ms": percentile(latencies, 0.50),
        "sim_p99_ms": percentile(latencies, 0.99),
        "harvest_share": full / submitted,
    }


def measure_end_to_end(workload: Any, seed: int, seconds: float,
                       scale: float) -> Tuple[Dict[str, float],
                                              Dict[str, Any]]:
    from benchmarks.stack.harness import run_unit

    setups = [probe_setup(workload.name, seed, scale)
              for _ in range(SETUP_PROBES)]
    run_unit(workload, unit_seed(seed, -1), scale * WARMUP_SCALE)
    units: List[Any] = []
    measured_s = 0.0
    peak_rss_mb = 0.0
    # whole units only: stop where the measured time is nearest to
    # `seconds`, not at the first unit to pass it
    while len(units) < POOLED_UNITS \
            or measured_s * (1 + 0.5 / len(units)) < seconds:
        unit = run_unit(workload, unit_seed(seed, len(units)), scale)
        units.append(unit)
        measured_s += unit.replay_s
        if len(units) == POOLED_UNITS:
            # read after a fixed amount of work, not after however many
            # units this host had time for
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pooled = units[:POOLED_UNITS]
    metrics = {
        "setup_s": statistics.median(setups),
        "req_per_s": statistics.median(
            unit.answered / unit.replay_ref_s for unit in units),
        "peak_rss_mb": peak_rss_mb,
    }
    simulated = simulated_metrics(pooled)
    metrics.update(simulated)
    exact = dict(simulated)
    counts = [unit.exact() for unit in pooled]
    for key in counts[0]:
        exact[key] = sum(count[key] for count in counts)
    details = {
        "units": len(units), "measured_s": measured_s, "exact": exact,
        "raw_req_per_s": statistics.median(
            unit.answered / unit.replay_s for unit in units),
        "host_speed": statistics.median(
            unit.host_speed for unit in units),
        "per_unit": [(unit.answered / unit.replay_s, unit.host_speed)
                     for unit in units],
        "attempted": sum(unit.submitted for unit in units),
        "failed": sum(unit.failed for unit in units),
        "answers": sum(len(unit.latencies_s) for unit in pooled),
        "steps": step_report(workload, pooled),
    }
    return metrics, details


# -- per layer ---------------------------------------------------------------

def measure_layers(workload: Any, seed: int, scale: float,
                   import_s: float) -> Tuple[Dict[str, float],
                                             Dict[str, Any]]:
    from benchmarks.stack import ledger
    from benchmarks.stack.harness import run_unit
    from benchmarks.stack.workloads import TRANSEND_PATHS

    seed0 = unit_seed(seed, 0)
    size = scale * TRACE_SCALE
    run_unit(workload, unit_seed(seed, -1), scale * WARMUP_SCALE)
    plain = run_unit(workload, seed0, size)
    profiled, host = ledger.profiled(
        lambda hook: run_unit(workload, seed0, size, around_replay=hook,
                              probe=False))
    full = run_unit(workload, seed0, size, trace_sample_every=1)
    sampled = run_unit(workload, seed0, size, trace_sample_every=100)
    plain_again = run_unit(workload, seed0, size)
    runs = {"plain": plain, "profiled": profiled, "traced-1/1": full,
            "traced-1/100": sampled, "plain-again": plain_again}
    mismatched = [name for name, unit in runs.items()
                  if unit.exact() != plain.exact()]

    n = plain.submitted
    # a deployment reports the counters it has; the rest read 0
    c: Dict[str, float] = defaultdict(float, plain.counters)
    # host times restated at the reference speed (the profiled replay
    # is not probed, so its overhead ratio compares raw times)
    untraced_s = (plain.replay_ref_s + plain_again.replay_ref_s) / 2.0
    untraced_raw_s = (plain.replay_s + plain_again.replay_s) / 2.0
    attempts = c["stub.dispatches"] + c["stub.retries"]
    lookups = c["cache.hits"] + c["cache.misses"]
    queries = c["hotbot.queries"]
    steps = step_report(workload, [plain])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    m: Dict[str, float] = {
        "sim.kernel.events_per_req": plain.events / n,
        "sim.kernel.resumes_per_req": host.calls(
            "repro/sim/kernel.py", ["_resume"]) / n,
        "sim.kernel.host_us_per_event": untraced_s / plain.events * 1e6,
        "sim.kernel.peak_heap_depth": plain.peak_heap_depth,
        "workload.tracegen_records_per_s": n / plain.inputs_s,
        "core.manager_stub.attempts_per_req": attempts / n,
        "core.manager_stub.retry_share": ratio(
            c["stub.retries"], c["stub.dispatches"]),
        "core.manager_stub.timeout_share": ratio(
            c["stub.timeouts"], attempts),
        "balance.picks_per_req": host.calls(
            "repro/core/manager_stub.py", ["pick"]) / n,
        "sim.network.messages_per_req": c["net.messages"] / n,
        "sim.network.bytes_per_req": c["net.bytes"] / n,
        "sim.network.busy_share": c["net.busy_s"] / plain.sim_duration_s,
        "core.worker_stub.sim_queue_ms": ledger.span_mean_ms(
            full.tracer, "worker-queue", n),
        "core.worker_stub.utilization": ratio(
            c["worker.busy_s"], c["worker.nodes"] * plain.sim_duration_s),
        "distillers.sim_service_ms": ledger.span_mean_ms(
            full.tracer, "worker-service", n),
        "core.manager.spawns": c["manager.spawns"],
        "core.manager.beacons_per_sim_s": ratio(
            c["manager.beacons"], plain.sim_duration_s),
        "core.manager.failures_detected": c["manager.failures_detected"],
        "cache.lookups_per_req": lookups / n,
        "cache.hit_ratio": ratio(c["cache.hits"], lookups),
        "cache.stores_per_req": c["cache.stores"] / n,
        "cache.evictions_per_req": c["cache.evictions"] / n,
        "transend.origin_fetch_share": c["origin.fetches"] / n,
        "hotbot.legs_per_query": ratio(c["hotbot.legs"], queries),
        "hotbot.qcache_hit_ratio": ratio(c["hotbot.cache_served"], queries),
        "hotbot.sim_slowest_leg_ms": ledger.slowest_leg_mean_ms(
            full.tracer),
        "sim.max_ok_rate_rps": max_ok_rate(steps),
        "obs.profiler_overhead_ratio": profiled.replay_s / untraced_raw_s,
        "obs.tracer_full_overhead_ratio": full.replay_ref_s / untraced_s,
        "obs.tracer_overhead_ratio": sampled.replay_ref_s / untraced_s,
        "runtime.cpu_us_per_req": (
            plain.replay_cpu_s * plain.host_speed
            + plain_again.replay_cpu_s * plain_again.host_speed)
        / 2 / n * 1e6,
        "runtime.gc_share": (plain.gc_s + plain_again.gc_s)
        / (2 * untraced_raw_s),
        "runtime.builtin_host_share": host.share("builtin"),
        "runtime.unattributed_host_share": host.share("unattributed"),
        "setup.import_s": import_s,
        "setup.build_s": plain.build_s,
        "setup.inputs_s": plain.inputs_s,
    }
    for layer in ledger.LAYERS:
        name = ("workload.playback_host_share" if layer == "workload"
                else f"{layer}.host_share")
        m[name] = host.share(layer)
    for path in TRANSEND_PATHS:
        m[f"transend.path_share.{path}"] = c[f"path.{path}"] / n
    split = ledger.simulated_time_split(full.tracer)
    for category in SIMTIME_CATEGORIES:
        m[f"simtime.{category}_ms"] = split.pop(category)
    if any(split.values()):
        raise RuntimeError(f"simulated time in unreported categories: "
                           f"{split}")
    # latency at the first and at the highest offered rate (one and the
    # same step on a single-rate workload)
    m["sim.step_p99_ms.first"] = steps[0]["p99_ms"]
    m["sim.step_p99_ms.top"] = max(
        steps, key=lambda step: step["rate_rps"])["p99_ms"]

    details = {
        "mismatched": mismatched, "exact": plain.exact(),
        "attempted": n, "failed": plain.failed, "steps": steps,
        "traced_requests": full.tracer.requests_sampled,
    }
    return m, details


# -- reporting ---------------------------------------------------------------

def declared_metrics() -> Dict[str, Dict[str, Dict[str, Any]]]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {kind: {entry["name"]: entry for entry in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def commit_id() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                          cwd=str(ROOT), capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of replay to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="below 1 is for smoke tests only")
    parser.add_argument("--setup-only", action="store_true",
                        help="build, generate inputs, exit (setup probe)")
    args = parser.parse_args(argv)

    import_started = time.perf_counter()
    try:
        import repro
    except ImportError:
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    from benchmarks.stack import golden
    from benchmarks.stack.workloads import WORKLOADS
    import_s = time.perf_counter() - import_started
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: measuring {repro.__file__}, which is not under "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0.0 < args.scale <= 1.0:
        print("error: --scale must be in (0, 1]", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        from benchmarks.stack.loadgen import scaled
        workload.build(unit_seed(args.seed, 0), args.scale)
        workload.inputs(unit_seed(args.seed, 0),
                        scaled(workload.steps, args.scale))
        return 0

    if args.trace:
        kind = "per_layer"
        metrics, details = measure_layers(workload, args.seed, args.scale,
                                          import_s)
    else:
        kind = "end_to_end"
        metrics, details = measure_end_to_end(
            workload, args.seed, args.seconds, args.scale)

    problems: List[str] = []
    if details.get("mismatched"):
        problems.append("tracing changed the run: exact counts differ in "
                        + ", ".join(details["mismatched"]))
    if details["failed"]:
        problems.append(f"{details['failed']} of {details['attempted']} "
                        "requests failed; no workload may fail one")
    if args.scale == 1.0:
        problems += [f"differs from golden.json: {difference}"
                     for difference in golden.differences(
                         kind, workload.name, args.seed, details["exact"])]
    declared = declared_metrics()[kind]
    if set(declared) != set(metrics):
        problems.append(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(metrics))}")

    scale_note = "" if args.scale == 1.0 else \
        "  ** SMOKE TEST: scale < 1, not a result **"
    print(f"stack benchmark  workload={workload.name} seed={args.seed} "
          f"scale={args.scale:g} metrics={kind}{scale_note}")
    print(f"  commit={commit_id()} python={platform.python_version()} "
          f"nproc={os.cpu_count()}")
    if kind == "end_to_end":
        print(f"  {details['units']} units, {details['measured_s']:.1f} s "
              f"of replay measured; simulated metrics pooled over the "
              f"first {POOLED_UNITS} units ({details['answers']} answers)")
        print(f"  host ran at {details['host_speed']:.3f} of reference "
              f"speed: {details['raw_req_per_s']:.1f} req/s as clocked, "
              f"req_per_s below is restated at reference speed")
        print("  per unit, req/s as clocked @ host speed: " + "  ".join(
            f"{rate:.0f}@{speed:.3f}"
            for rate, speed in details["per_unit"]))
    else:
        print(f"  unit of {details['attempted']} requests; "
              f"{details['traced_requests']} requests traced at 1/1")
    for step in details["steps"]:
        print(f"  step {step['rate_rps']:g} rps: sent {step['sent']}, "
              f"p99 {step['p99_ms']:.1f} ms, failed share "
              f"{step['failed_share']:.4f}, in flight at end "
              f"{step['end_in_flight']} -> "
              f"{'meets' if step['ok'] else 'misses'} the limit")
    for name in sorted(metrics):
        unit = declared.get(name, {}).get("unit", "?")
        print(f"  {name:<44} {metrics[name]:>16.6f} {unit}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": value,
                           "unit": declared.get(name, {}).get("unit", "?")}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
