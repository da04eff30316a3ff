"""The fidelity guard: recorded simulated metrics and exact counts.

`golden.json` holds, for seeds 1997 and 2026 (the held-out seed) at
scale 1, what every workload's end-to-end and traced run must reproduce
bit for bit.  `run.py` compares against it and never writes it.  A
change whose issue says it alters the model regenerates the file, on
purpose and as its own step, with

    PYTHONPATH=src python -m benchmarks.stack.golden
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
SEEDS = (1997, 2026)


def differences(kind: str, workload_name: str, seed: int,
                exact: Dict[str, float]) -> List[str]:
    """Where this run's exact values differ from the recorded ones
    (nothing when the seed is not a recorded one)."""
    if seed not in SEEDS:
        return []
    recorded = json.loads(GOLDEN_PATH.read_text())[str(seed)][
        workload_name][kind]
    return [f"{key}: recorded {recorded.get(key)!r}, got {value!r}"
            for key, value in exact.items() if recorded.get(key) != value]


def main() -> int:
    from benchmarks.stack import run
    from benchmarks.stack.workloads import WORKLOADS

    golden: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for seed in SEEDS:
        for name, workload in WORKLOADS.items():
            _, end_to_end = run.measure_end_to_end(workload, seed, 0.0, 1.0)
            _, per_layer = run.measure_layers(workload, seed, 1.0, 0.0)
            golden.setdefault(str(seed), {})[name] = {
                "end_to_end": end_to_end["exact"],
                "per_layer": per_layer["exact"]}
            print(f"seed {seed} {name} recorded", file=sys.stderr)
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
