"""Tests for the routing-policy sweep experiment."""

import pytest

from repro.balance import parse_policy_spec
from repro.experiments.policy_sweep import (
    DEFAULT_POLICIES,
    run_policy_arm,
    run_policy_sweep,
)

ARMS = ("lottery", "ewma+eject")
N_REQUESTS = 4000
SEED = 3


def test_default_policy_list_all_parse():
    for spec in DEFAULT_POLICIES:
        parse_policy_spec(spec)
    assert "lottery" in DEFAULT_POLICIES       # the paper baseline
    assert "ewma+eject" in DEFAULT_POLICIES    # the headline candidate


@pytest.fixture(scope="module")
def quick_sweep():
    return run_policy_sweep(policies=ARMS, n_requests=N_REQUESTS,
                            seed=SEED, jobs=1)


def test_sweep_arms_complete_and_render(quick_sweep):
    assert [arm.policy for arm in quick_sweep.arms] == list(ARMS)
    for arm in quick_sweep.arms:
        assert arm.submitted == N_REQUESTS
        assert arm.completed > 0
        assert 0.0 < arm.harvest <= 1.0
        assert arm.p99_s >= arm.p50_s > 0.0
    text = quick_sweep.render()
    assert "lottery" in text and "ewma+eject" in text
    assert "beats lottery on p99" in text


def test_sweep_fanout_is_byte_identical_to_serial(quick_sweep):
    fanned = run_policy_sweep(policies=ARMS, n_requests=N_REQUESTS,
                              seed=SEED, jobs=2)
    assert fanned.render() == quick_sweep.render()
    for serial_arm, fanned_arm in zip(quick_sweep.arms, fanned.arms):
        assert serial_arm == fanned_arm


def test_ejection_engages_before_the_supervisor(quick_sweep):
    """The tentpole's point: the balancer routes around the gray worker
    seconds after injection, while the detuned backstop supervisor has
    not even detected the fault yet."""
    eject = quick_sweep.arm("ewma+eject")
    lottery = quick_sweep.arm("lottery")
    assert eject.victim_ejected_at is not None
    assert eject.victim_ejected_at >= eject.inject_at
    assert eject.victim_ejected_at - eject.inject_at < 20.0
    if eject.fault_detected_at is not None:
        assert eject.victim_ejected_at < eject.fault_detected_at
    # ejection starves the sick worker relative to blind lottery
    assert eject.victim_served_after < lottery.victim_served_after
    assert eject.ejections >= 1


def test_lottery_arm_runs_without_any_ejection_machinery(quick_sweep):
    lottery = quick_sweep.arm("lottery")
    assert lottery.ejections == 0
    assert lottery.pre_inject_ejections == 0
    assert lottery.victim_ejected_at is None
    assert lottery.first_ejection_at is None


def test_single_arm_is_independent_of_sweep_composition(quick_sweep):
    """Arms rebuild everything from the seed, so one arm rerun alone
    must equal the same arm inside the sweep (shard safety)."""
    alone = run_policy_arm(policy="lottery", n_requests=N_REQUESTS,
                           seed=SEED)
    assert alone == quick_sweep.arm("lottery")
