"""Fault rows armed through :class:`~repro.chaos.campaign.Faults` on a
plain SNS fabric, outside any campaign: when a row fires, what it
refuses, and how the kill loops pick their victims."""

import pytest

from repro.chaos.campaign import (
    FaultRecord,
    Faults,
    KillWorker,
    PartitionWorker,
    RandomKills,
    RollingKills,
)
from repro.sim.rng import Stream, derive_seed

from tests.core.conftest import make_fabric


def booted(n_workers=2, n_frontends=1, seed=7):
    fabric = make_fabric(n_nodes=10, seed=seed)
    fabric.boot(n_frontends=n_frontends,
                initial_workers={"test-worker": n_workers})
    fabric.cluster.run(until=2.0)
    return fabric, Faults(fabric)


def test_a_kill_fires_at_its_time_and_is_logged():
    fabric, faults = booted()
    victim = sorted(fabric.alive_workers(), key=lambda w: w.name)[0]
    faults.arm((KillWorker(at=10.0),))
    fabric.cluster.run(until=20.0)
    assert victim.killed_at == 10.0
    assert faults.timeline == [FaultRecord(10.0, "kill", victim.name)]


def test_a_row_armed_after_its_time_is_refused():
    fabric, faults = booted()
    fabric.cluster.run(until=10.0)
    with pytest.raises(ValueError) as raised:
        faults.arm((KillWorker(at=7.0),))
    assert "KillWorker" in str(raised.value)
    assert "before now" in str(raised.value)


def test_past_rows_are_refused_before_any_is_armed():
    """Refusal happens in the arming call, where the caller can catch
    it, and arms nothing — not a later error inside a kernel process."""
    fabric, faults = booted()
    fabric.cluster.run(until=10.0)
    with pytest.raises(ValueError) as raised:
        faults.arm((KillWorker(at=12.0),
                    PartitionWorker(at=9.9, duration_s=5.0)))
    assert "PartitionWorker" in str(raised.value)
    fabric.cluster.run(until=20.0)
    assert faults.timeline == []
    assert all(stub.killed_at != 12.0 for stub in fabric.workers.values())


def test_rolling_kills_round_robin_without_an_rng():
    fabric, faults = booted(n_workers=4)
    picks = []
    kill = faults.kill

    def noted_kill(target):
        picks.append((target.name,
                      [stub.name for stub in faults.alive_workers()]))
        kill(target)

    faults.kill = noted_kill
    faults.arm((RollingKills(at=10.0, duration_s=21.0),))
    fabric.cluster.run(until=60.0)
    # at most one kill per 4.5 s period that fits in the window, the
    # n-th kill taking the n-th live worker by name (idle ones may have
    # been reaped in between)
    times = [record.time for record in faults.timeline]
    assert len(times) >= 3
    assert times == [14.5, 19.0, 23.5, 28.0][:len(times)]
    for index, (victim, alive) in enumerate(picks):
        assert victim == alive[index % len(alive)]
    streams = fabric.cluster.streams
    drawn = streams.stream("chaos:faults")._random.getstate()
    pristine = Stream(derive_seed(streams.master_seed,
                                  "chaos:faults"))._random.getstate()
    assert drawn == pristine


def test_rolling_kills_validates_duration():
    _, faults = booted()
    with pytest.raises(ValueError, match="duration_s"):
        faults.arm((RollingKills(at=5.0, duration_s=1.0),))


def test_random_kills_hit_only_live_targets_never_twice():
    fabric, faults = booted(n_workers=3, n_frontends=2, seed=3)
    killed = []
    kill = faults.kill

    def checked_kill(target):
        assert target.alive
        frontends = fabric.alive_frontends()
        assert target not in frontends or len(frontends) > 1
        killed.append(target)
        kill(target)

    faults.kill = checked_kill
    faults.arm((RandomKills(at=2.0, duration_s=150.0, mtbf_s=10.0),))
    fabric.cluster.run(until=160.0)
    assert len(killed) >= 5  # with mtbf 10 s over 150 s faults land
    assert len({id(target) for target in killed}) == len(killed)
    assert len(faults.timeline) == len(killed)


def test_random_kills_refuse_a_nan_mtbf_before_the_run():
    """A NaN mean gap used to be accepted and to abort the run at the
    first kill; the row refuses it when armed (the other bad values are
    in test_campaigns.py's table)."""
    fabric, faults = booted()
    with pytest.raises(ValueError) as raised:
        faults.arm((RandomKills(at=5.0, mtbf_s=float("nan")),))
    assert "RandomKills" in str(raised.value)
    assert "mtbf_s" in str(raised.value)
    fabric.cluster.run(until=30.0)
    assert faults.timeline == []
