"""Accounting tests for the recovery ledger (MTTD/MTTR/availability)."""

import pytest

from repro.recovery import FaultCase, RecoveryLedger
from repro.sim.kernel import Environment


def make_env():
    return Environment()


def advance(env, until):
    def waiter():
        yield env.timeout(until - env.now)
    env.process(waiter())
    env.run(until=until)


def test_case_lifecycle_and_latencies():
    env = make_env()
    ledger = RecoveryLedger(env)
    advance(env, 10.0)
    case = ledger.inject("hang", "w.1")
    assert not case.detected and not case.healed
    assert case.mttd is None and case.mttr is None

    advance(env, 13.0)
    stamped = ledger.note_detected("w.1", "probe", "never answered")
    assert stamped is case
    assert case.mttd == pytest.approx(3.0)

    advance(env, 14.5)
    ledger.note_healed(case, "restart", replacement="w.2")
    assert case.mttr == pytest.approx(1.5)
    assert case.heal_action == "restart"
    assert ledger.healed == [case] == ledger.cases


def test_detection_matches_oldest_undetected_case():
    env = make_env()
    ledger = RecoveryLedger(env)
    first = ledger.inject("fail-slow", "w.1")
    second = ledger.inject("leak", "w.1")
    ledger.note_detected("w.1", "probe")
    assert first.detected and not second.detected


def test_unmatched_detection_is_a_false_alarm():
    env = make_env()
    ledger = RecoveryLedger(env)
    assert ledger.note_detected("healthy.worker", "probe") is None
    assert len(ledger.false_alarms) == 1
    assert ledger.summary(10.0, population=1)["false_alarms"] == 1


def test_outage_clamps_to_run_end_when_unhealed():
    env = make_env()
    ledger = RecoveryLedger(env)
    advance(env, 10.0)
    case = ledger.inject("zombie", "w.1")
    # never healed: outage runs to the end of the window
    assert case.outage_s(90.0) == pytest.approx(80.0)
    advance(env, 25.0)
    ledger.note_healed(case, "restart")
    assert case.outage_s(90.0) == pytest.approx(15.0)


def test_summary_availability_denominator_uses_population():
    env = make_env()
    ledger = RecoveryLedger(env)
    advance(env, 10.0)
    case = ledger.inject("hang", "w.1")
    advance(env, 19.0)
    ledger.note_detected("w.1", "probe")
    ledger.note_healed(case, "restart")
    summary = ledger.summary(90.0, population=3)
    # 9s of one worker out of three over a 90s run
    assert summary["availability"] == pytest.approx(1.0 - 9.0 / 270.0)
    assert summary["injected"] == 1
    assert summary["healed"] == 1
    assert summary["mttd_mean"] == pytest.approx(9.0)
    assert summary["mttr_mean"] == pytest.approx(0.0)


def test_render_marks_undetected_cases():
    env = make_env()
    ledger = RecoveryLedger(env)
    ledger.inject("zombie", "w.1")
    case = ledger.inject("hang", "w.2")
    ledger.note_detected("w.2", "rpc-timeout")
    ledger.note_healed(case, "restart", replacement="w.3")
    assert "NOT detected" in repr(ledger.cases[0])
    assert "rpc-timeout" in repr(case) and "w.3" in repr(case)
