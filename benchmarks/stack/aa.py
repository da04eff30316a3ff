"""A/A check: does the same code, measured twice, agree with itself?

    PYTHONPATH=src python -m benchmarks.stack.aa --sets 2 --runs 5

Runs ``--sets`` interleaved sets of ``--runs`` fresh-process benchmark
runs per workload; run r of every set uses seed ``FIRST_SEED + r``, so
the sets see the same inputs.  Per workload and end-to-end metric it
prints each set's quartiles and median and judges three things:

* **drift** — how much worse a later set's median is than the first
  set's, same seeds on both sides.  This is what a parent-against-change
  comparison sees of the benchmark's own noise; it must stay inside the
  metric's bound in BENCHMARK.json.
* **exact** — simulated metrics must repeat bit for bit, run by run.
* **spread** — distance between the quartiles over the median, across
  the different seeds of one set.  For a simulated metric this is how
  much the model's answer moves from seed to seed, not noise; the bound
  has to cover it all the same, because an acceptance run changes the
  seed every time.  Flagged when above a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).resolve().parent / "run.py"
FIRST_SEED = 1
#: on the simulated clock: the same seed must give the same value
SIMULATED = ("sim_p50_ms", "sim_p99_ms", "harvest_share")


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of first."""
    change = (later - first) / first
    return -change if better == "higher" else change


def main(argv: Sequence[str] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.sets < 2 or args.runs < 2:
        parser.error("need at least 2 sets to compare and 2 runs for "
                     "quartiles")
    workloads = [entry["name"] for entry in spec["workloads"]]

    # results[workload][set] = list of {metric: value}, one per run
    results: Dict[str, List[List[Dict[str, float]]]] = {
        workload: [[] for _ in range(args.sets)] for workload in workloads}
    for run in range(args.runs):
        for set_index in range(args.sets):
            for workload in workloads:
                started = time.perf_counter()
                results[workload][set_index].append(run_once(
                    workload, FIRST_SEED + run, spec["run_seconds"]))
                print(f"run {run + 1}/{args.runs} set {set_index + 1} "
                      f"{workload} took {time.perf_counter() - started:.1f}"
                      " s", file=sys.stderr, flush=True)

    all_pass = True
    for workload in workloads:
        print(f"\n{workload}")
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            columns = [[run[name] for run in runs]
                       for runs in results[workload]]
            medians = [statistics.median(column) for column in columns]
            widest = max(spread(column) for column in columns)
            drift = max(worsening(medians[0], later, entry["better"])
                        for later in medians[1:])
            exact = all(column == columns[0] for column in columns[1:])
            # the spread of setup_s is reported but not judged
            ok = (drift <= bound
                  and (name == "setup_s" or widest <= bound)
                  and (exact or name not in SIMULATED))
            all_pass &= ok
            cells = "  ".join(
                f"set{index + 1} {statistics.quantiles(column, n=4)[0]:.5g}"
                f"/{median:.5g}/{statistics.quantiles(column, n=4)[2]:.5g}"
                for index, (column, median)
                in enumerate(zip(columns, medians)))
            notes = (("  exact" if exact else "")
                     + ("" if widest <= bound / 3 else "  (spread > bound/3)"))
            print(f"  {name:<14} {cells}  drift {drift:+.4f}  spread "
                  f"{widest:.4f}  bound {bound:g}  "
                  f"{'pass' if ok else 'FAIL'}{notes}")
    print("\nq1/median/q3 per set;", "all within bounds" if all_pass
          else "SOME METRICS OUTSIDE THEIR BOUNDS")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
