"""Trajectory digests for every chaos campaign (ROADMAP 2(a), at
report level).

`report_digests.json` pins, for every campaign x manager backend x
seed, the sha256 of the rendered report, the kernel's final event
sequence number and the verdict.  A control-plane refactor that claims
to move no event must leave the file alone; a change meant to alter a
campaign re-records it, on purpose and as its own step, with

    PYTHONPATH=src python -m tests.chaos.test_report_digests --record

so the intended change shows up as an explicit golden diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.chaos import CAMPAIGNS, CampaignRunner, get_campaign

DIGESTS_PATH = Path(__file__).resolve().parent / "report_digests.json"
BACKENDS = ("soft", "consensus")
SEEDS = (1997, 3)
CASES = [(name, backend, seed) for name in CAMPAIGNS
         for backend in BACKENDS for seed in SEEDS]


def measure(name: str, backend: str, seed: int) -> Dict[str, Any]:
    campaign = get_campaign(name, {"manager_backend": backend})
    runner = CampaignRunner(campaign, seed=seed)
    report = runner.run()
    return {
        "report_sha256": hashlib.sha256(
            report.render().encode()).hexdigest(),
        "env_seq": runner.env._seq,
        "ok": report.ok,
    }


def key(name: str, backend: str, seed: int) -> str:
    return f"{name}/{backend}/{seed}"


def test_every_case_is_recorded():
    recorded = json.loads(DIGESTS_PATH.read_text())
    assert sorted(recorded) == sorted(key(*case) for case in CASES)


@pytest.mark.parametrize("name,backend,seed", CASES)
def test_report_digest(name: str, backend: str, seed: int):
    recorded = json.loads(DIGESTS_PATH.read_text())[
        key(name, backend, seed)]
    got = measure(name, backend, seed)
    assert got == recorded, (
        f"campaign {name!r} under the {backend} backend at seed {seed} "
        f"left its recorded trajectory: "
        + ", ".join(f"{field}: recorded {recorded[field]!r}, got "
                    f"{value!r}" for field, value in got.items()
                    if recorded[field] != value)
        + f"; reproduce with `PYTHONPATH=src python -m repro chaos "
          f"{name} --manager-backend {backend} --seed {seed}`")


def main(argv) -> int:
    if argv != ["--record"]:
        print(__doc__, file=sys.stderr)
        return 2
    digests = {}
    for case in CASES:
        digests[key(*case)] = measure(*case)
        print(f"{key(*case)} recorded", file=sys.stderr)
    DIGESTS_PATH.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
