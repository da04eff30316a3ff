"""Trajectory digests for every chaos campaign, at report level.

`report_digests.json` pins, for every campaign x manager backend x
seed, the sha256 of the rendered report and the verdict (the
observables) and, apart from them, the kernel's final event sequence
number (the event counter).  A control-plane refactor that claims to
move no event must leave the file alone; a change meant to alter a
campaign re-records it, on purpose and as its own step, with

    PYTHONPATH=src python -m tests.chaos.test_report_digests --record

so the intended change shows up as an explicit golden diff.  A change
that only removes events (the same reports, fewer scheduled events)
re-records the counter alone:

    PYTHONPATH=src python -m tests.chaos.test_report_digests --record --events-only

which prints each row's old -> new count, and writes nothing if any
report or verdict moved or any count rose.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Tuple

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


#: what the paper measures: the rendered report and the verdict
OBSERVABLES = ("report_sha256", "ok")
#: the simulator's odometer (DESIGN.md section 6)
COUNTERS = ("env_seq",)


def key(name: str, backend: str, seed: int) -> str:
    return f"{name}/{backend}/{seed}"


#: one run per case, shared by the observable and the counter test
measured = lru_cache(maxsize=None)(measure)


def test_every_case_is_recorded():
    recorded = json.loads(DIGESTS_PATH.read_text())
    assert sorted(recorded) == sorted(key(*case) for case in CASES)


def moved(recorded: Dict[str, Any], got: Dict[str, Any],
          fields: Tuple[str, ...]) -> List[str]:
    return [f"{field}: recorded {recorded[field]!r}, got {got[field]!r}"
            for field in fields if recorded[field] != got[field]]


def reproduce(name: str, backend: str, seed: int) -> str:
    return (f"reproduce with `PYTHONPATH=src python -m repro chaos "
            f"{name} --manager-backend {backend} --seed {seed}`")


@pytest.mark.parametrize("name,backend,seed", CASES)
def test_report_digest(name: str, backend: str, seed: int):
    recorded = json.loads(DIGESTS_PATH.read_text())[
        key(name, backend, seed)]
    differences = moved(recorded, measured(name, backend, seed),
                        OBSERVABLES)
    assert not differences, (
        f"campaign {name!r} under the {backend} backend at seed {seed} "
        f"left its recorded trajectory: " + ", ".join(differences)
        + "; " + reproduce(name, backend, seed))


@pytest.mark.parametrize("name,backend,seed", CASES)
def test_event_counter(name: str, backend: str, seed: int):
    recorded = json.loads(DIGESTS_PATH.read_text())[
        key(name, backend, seed)]
    differences = moved(recorded, measured(name, backend, seed), COUNTERS)
    assert not differences, (
        f"campaign {name!r} under the {backend} backend at seed {seed} "
        f"scheduled another number of events: " + ", ".join(differences)
        + "; a change that removes events and moves no report "
          "re-records the counter alone with `PYTHONPATH=src python -m "
          "tests.chaos.test_report_digests --record --events-only`; "
        + reproduce(name, backend, seed))


# -- the split, exercised on a copy of the file ------------------------------

#: the cheapest case; the planted tests run it a few times
PLANTED_CASE = ("smoke", "soft", 3)


def plant_an_extra_event(patch) -> None:
    """One more event, at time zero, that does nothing: every later
    event keeps its order and runs one sequence number later."""
    init = CampaignRunner.__init__

    def init_and_plant(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.env.schedule_call(0.0, lambda event: None)

    patch.setattr(CampaignRunner, "__init__", init_and_plant)


@pytest.fixture
def digest_copy(tmp_path, monkeypatch):
    """This module, reading and recording a copy of the digest file,
    for the one planted case, with every run measured afresh."""
    copy = tmp_path / DIGESTS_PATH.name
    copy.write_text(DIGESTS_PATH.read_text())
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "DIGESTS_PATH", copy)
    monkeypatch.setattr(module, "CASES", [PLANTED_CASE])
    monkeypatch.setattr(module, "measured", measure)
    return copy


def test_a_planted_extra_event_fails_the_counter_alone(digest_copy,
                                                        monkeypatch):
    committed = digest_copy.read_text()
    recorded = json.loads(committed)[key(*PLANTED_CASE)]["env_seq"]
    plant_an_extra_event(monkeypatch)
    test_report_digest(*PLANTED_CASE)
    with pytest.raises(AssertionError, match="--events-only") as failure:
        test_event_counter(*PLANTED_CASE)
    assert f"env_seq: recorded {recorded}, got {recorded + 1}" \
        in str(failure.value)
    # a rise is no events-only change
    assert main(["--record", "--events-only"]) == 1
    assert digest_copy.read_text() == committed


def test_a_planted_removal_passes_after_an_events_only_record(
        digest_copy, monkeypatch, capsys):
    with monkeypatch.context() as patch:
        plant_an_extra_event(patch)
        assert main(["--record"]) == 0
    planted = json.loads(digest_copy.read_text())[key(*PLANTED_CASE)]
    # the plant is gone: one event fewer, the same report
    test_report_digest(*PLANTED_CASE)
    with pytest.raises(AssertionError, match="--events-only"):
        test_event_counter(*PLANTED_CASE)
    capsys.readouterr()
    assert main(["--record", "--events-only"]) == 0
    n = planted["env_seq"]
    assert f"{key(*PLANTED_CASE)} env_seq {n} -> {n - 1}" \
        in capsys.readouterr().err
    test_report_digest(*PLANTED_CASE)
    test_event_counter(*PLANTED_CASE)
    assert json.loads(digest_copy.read_text()) == {
        key(*PLANTED_CASE): dict(planted, env_seq=n - 1)}


def record_events_only() -> int:
    """Rewrite ``env_seq`` alone; refuse a moved observable or a count
    that rose, and then write nothing."""
    digests = json.loads(DIGESTS_PATH.read_text())
    refused = []
    for case in CASES:
        recorded, got = digests[key(*case)], measure(*case)
        differences = moved(recorded, got, OBSERVABLES)
        if differences:
            refused.append(f"{key(*case)}: {', '.join(differences)}")
        elif got["env_seq"] > recorded["env_seq"]:
            refused.append(f"{key(*case)}: env_seq rose "
                           f"{recorded['env_seq']} -> {got['env_seq']}")
        print(f"{key(*case)} env_seq {recorded['env_seq']} -> "
              f"{got['env_seq']}", file=sys.stderr)
        recorded["env_seq"] = got["env_seq"]
    if refused:
        print("refused (a moved report or a rise needs the full "
              "--record):\n  " + "\n  ".join(refused), file=sys.stderr)
        return 1
    DIGESTS_PATH.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv) -> int:
    if argv == ["--record", "--events-only"]:
        return record_events_only()
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
