"""Output digests for every experiment at its quick scale.

`quick_digests.json` pins, for every experiment `repro list` names, the
sha256 of what `repro run <name> --quick --seed 1997` prints (the
header line plus the rendered result).  A refactor of the experiment
table, a driver or a renderer that claims to change no output must
leave the file alone; a change meant to alter an experiment re-records
it, on purpose and as its own step, with

    PYTHONPATH=src python -m tests.experiments.test_quick_digests --record

so the intended change shows up as an explicit golden diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, run_experiment

DIGESTS_PATH = Path(__file__).resolve().parent / "quick_digests.json"
SEED = 1997


def measure(name: str) -> str:
    text = run_experiment(name, SEED, quick=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_experiment_is_recorded():
    recorded = json.loads(DIGESTS_PATH.read_text())
    assert sorted(recorded) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_quick_output_digest(name: str):
    recorded = json.loads(DIGESTS_PATH.read_text())[name]
    assert measure(name) == recorded, (
        f"experiment {name!r} at its quick scale no longer prints what "
        f"was recorded; reproduce with `PYTHONPATH=src python -m repro "
        f"run {name} --quick --seed {SEED}`")


def main(argv) -> int:
    if argv != ["--record"]:
        print(__doc__, file=sys.stderr)
        return 2
    digests = {}
    for name in sorted(EXPERIMENTS):
        digests[name] = measure(name)
        print(f"{name} recorded", file=sys.stderr)
    DIGESTS_PATH.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
