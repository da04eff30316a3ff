"""Alternated pairs: the `stack` benchmark on two checkouts, side by side.

    python tools/ab.py PARENT CHANGE --workload transend_mix --seed 1997 --pairs 10

Each pair runs the checkout's BENCHMARK.json command (``python3
benchmarks/stack/run.py``) with ``--workload W --seed S`` once in each
checkout, the parent first on odd pairs and the change first on even
ones, with every ``__pycache__`` under the checkout removed before each
run (so every run compiles what it imports, as the
first run in a fresh checkout does).  Every run's metrics are printed
as it finishes; then, for each end-to-end metric that BENCHMARK.json
declares, both medians with their interquartile ranges, the change's
median against the parent's as a share of the metric's bound, and the
pairs the change won (ties count for neither side).  A run that prints
``correct: false`` or fails a request fails the whole comparison: the
exit status is 1.  Nothing is written to either checkout except the
removed bytecode.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple

#: one run's closing JSON line, parsed
Result = Dict[str, object]
Runner = Callable[[Path, str, int], Result]

SIDES = ("parent", "change")


class Run(NamedTuple):
    pair: int
    side: str
    result: Result


class Row(NamedTuple):
    metric: str
    parent: Tuple[float, float]   # (median, interquartile range)
    change: Tuple[float, float]
    relative: float               # change median / parent median - 1
    bound: float
    wins: int
    pairs: int


def orders(n_pairs: int) -> Iterator[Tuple[int, Tuple[str, str]]]:
    """``(pair, sides in running order)``, pairs counted from 1."""
    for pair in range(1, n_pairs + 1):
        yield pair, SIDES if pair % 2 else SIDES[::-1]


def clear_bytecode(checkout: Path) -> None:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def benchmark(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def run_benchmark(checkout: Path, workload: str, seed: int) -> Result:
    """One run of the checkout's BENCHMARK.json command: its last line
    of stdout."""
    clear_bytecode(checkout)
    done = subprocess.run(
        benchmark(checkout)["command"]
        + ["--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no output (exit {done.returncode})"
                         f"\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_pairs(checkouts: Dict[str, Path], workload: str, seed: int,
              n_pairs: int, runner: Runner = run_benchmark,
              report: Callable[[Run], None] = lambda run: None
              ) -> List[Run]:
    runs: List[Run] = []
    for pair, sides in orders(n_pairs):
        for side in sides:
            run = Run(pair, side, runner(checkouts[side], workload, seed))
            report(run)
            runs.append(run)
    return runs


def value(result: Result, metric: str) -> float:
    return result["metrics"][metric]["value"]


def spread(values: List[float]) -> Tuple[float, float]:
    """(median, interquartile range); quartiles by the inclusive
    method, so that they lie within the runs."""
    if len(values) < 2:
        return values[0], 0.0
    first, median, third = statistics.quantiles(values, n=4,
                                               method="inclusive")
    return median, third - first


def rows(runs: List[Run], end_to_end: List[dict]) -> List[Row]:
    """One row per end-to-end metric of BENCHMARK.json."""
    by_pair: Dict[int, Dict[str, Result]] = {}
    for run in runs:
        by_pair.setdefault(run.pair, {})[run.side] = run.result
    table = []
    for metric in end_to_end:
        name, sign = metric["name"], \
            1 if metric["better"] == "higher" else -1
        parent = [value(sides["parent"], name) for sides in by_pair.values()]
        change = [value(sides["change"], name) for sides in by_pair.values()]
        wins = sum(sign * (new - old) > 0
                   for old, new in zip(parent, change))
        parent_spread, change_spread = spread(parent), spread(change)
        relative = change_spread[0] / parent_spread[0] - 1 \
            if parent_spread[0] else 0.0
        table.append(Row(name, parent_spread, change_spread, relative,
                         metric["bound"], wins, len(parent)))
    return table


def failures(runs: List[Run]) -> List[str]:
    return [f"pair {run.pair} {run.side}: correct "
            f"{run.result.get('correct')}, failed "
            f"{run.result.get('failed')} of {run.result.get('attempted')}"
            for run in runs
            if run.result.get("correct") is not True
            or run.result.get("failed", 0) > 0]


def render(workload: str, table: List[Row]) -> str:
    lines = [f"{workload}: medians and interquartile ranges; moved is "
             f"change / parent - 1, wins the pairs the change won",
             f"  {'metric':<14}{'parent':>12}{'IQR':>10}{'change':>12}"
             f"{'IQR':>10}{'moved':>9}{'bound':>8}{'wins':>7}"]
    for row in table:
        lines.append(
            f"  {row.metric:<14}{row.parent[0]:>12.5g}{row.parent[1]:>10.3g}"
            f"{row.change[0]:>12.5g}{row.change[1]:>10.3g}"
            f"{row.relative:>+9.1%}{row.bound:>8.1%}"
            f"{f'{row.wins}/{row.pairs}':>7}")
    return "\n".join(lines)


def describe(run: Run) -> str:
    metrics = run.result.get("metrics", {})
    return (f"pair {run.pair:>2} {run.side:<6} correct "
            f"{run.result.get('correct')} failed {run.result.get('failed')} "
            + " ".join(f"{name}={entry['value']:.6g}"
                       for name, entry in sorted(metrics.items())))


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        help="repeat for several workloads")
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    declared = benchmark(checkouts["change"])["end_to_end"]
    failed: List[str] = []
    for workload in args.workload:
        runs = run_pairs(checkouts, workload, args.seed, args.pairs,
                         report=lambda run: print(
                             f"{workload} {describe(run)}", flush=True))
        print(render(workload, rows(runs, declared)), flush=True)
        failed += [f"{workload} {problem}" for problem in failures(runs)]
    for problem in failed:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
