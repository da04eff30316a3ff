"""Unit tests for the online invariant checker."""

from types import SimpleNamespace

import pytest

from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.core.config import SNSConfig
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.tacc.customization import ProfileStore
from repro.workload.playback import PlaybackEngine

from tests.core.conftest import fast_config, make_fabric, make_record


def booted_fabric(**config_overrides):
    fabric = make_fabric(config=fast_config(**config_overrides))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    return fabric


def test_checked_submit_counts_and_passes_through():
    fabric = booted_fabric()
    checker = InvariantChecker(fabric)
    submit = checker.checked_submit(fabric.submit)
    reply = submit(make_record())
    response = fabric.cluster.env.run(until=reply)
    assert response is not None
    assert checker.submitted == 1
    assert checker.ok


def test_double_completion_flagged():
    fabric = booted_fabric()
    checker = InvariantChecker(fabric)
    checker.checked_submit(fabric.submit)  # installs nothing globally
    checker._completed(0)
    assert checker.ok
    checker._completed(0)
    assert not checker.ok
    assert checker.violations[0].invariant == "single-completion"


def test_reregistration_violation_when_worker_never_returns():
    """A worker alive at the heal that never re-appears in the manager's
    view must be flagged within the period budget."""
    fabric = booted_fabric()
    checker = InvariantChecker(fabric)
    victim = fabric.alive_workers()[0]
    victim.partition(6.0)
    heal_at = fabric.cluster.env.now + 6.0
    # re-partition just before the heal, forever: it can never register
    fabric.cluster.run(until=heal_at - 0.1)
    victim.partition(1000.0)
    checker.expect_reregistration(heal_at + 0.05)
    fabric.cluster.run(until=heal_at + 30.0)
    # the victim is partitioned => it leaves ground truth, so the checker
    # correctly does NOT blame it...
    assert checker.ok

    # ...but a worker that is reachable yet silent IS blamed
    silent = [stub for stub in fabric.alive_workers()
              if not stub.is_partitioned][0]
    # pretend to be registered with the current incarnation so the
    # beacon listener never re-registers
    silent._registered_incarnation = fabric.manager.incarnation
    if silent._manager_endpoint is not None:
        silent._manager_endpoint.channel.close()
        silent._manager_endpoint = None
    fabric.manager.workers.pop(silent.name, None)
    now = fabric.cluster.env.now
    checker.expect_reregistration(now)
    budget = (checker.reregister_periods + 2) * \
        fabric.config.beacon_interval_s
    fabric.cluster.run(until=now + budget + 5.0)
    assert any(v.invariant == "reregistration"
               for v in checker.violations)


def test_reregistration_success_records_time():
    fabric = booted_fabric()
    checker = InvariantChecker(fabric)
    victim = fabric.alive_workers()[0]
    victim.partition(5.0)
    heal_at = fabric.cluster.env.now + 5.0
    checker.expect_reregistration(heal_at)
    fabric.cluster.run(until=heal_at + 10.0)
    assert checker.ok
    assert len(checker.reregistration_times) == 1
    budget = checker.reregister_periods * fabric.config.beacon_interval_s
    assert checker.reregistration_times[0] <= budget


def test_convergence_success_and_extinction():
    fabric = booted_fabric()
    checker = InvariantChecker(fabric)
    now = fabric.cluster.env.now
    checker.expect_convergence(now + 1.0)
    fabric.cluster.run(until=now + 10.0)
    assert checker.ok
    assert checker.convergence_s is not None

    # kill every worker and keep killing respawns: an empty pool is
    # extinction, never convergence
    extinct = InvariantChecker(fabric)
    now = fabric.cluster.env.now
    extinct.expect_convergence(now + 0.5, within_s=2.0)
    for _ in range(8):
        for stub in fabric.alive_workers():
            stub.kill()
        fabric.cluster.run(until=fabric.cluster.env.now + 0.5)
    assert any(v.invariant == "convergence" and "extinct" in v.detail
               for v in extinct.violations)


def test_final_checks_flag_hangs_and_slow_replies():
    fabric = booted_fabric()
    checker = InvariantChecker(fabric)
    engine = PlaybackEngine(
        fabric.cluster.env, checker.checked_submit(fabric.submit),
        rng=RandomStreams(3).stream("pb"), timeout_s=10.0)
    pool = [make_record(i) for i in range(5)]
    fabric.cluster.env.process(engine.constant_rate(5.0, 3.0, pool))
    fabric.cluster.run(until=20.0)
    checker.final_checks(engine, max_latency_s=10.0)
    assert checker.ok

    # artificially tighten the latency bound: must now flag
    strict = InvariantChecker(fabric)
    strict.submitted = len(engine.outcomes)
    strict.final_checks(engine, max_latency_s=1e-9)
    assert any(v.invariant == "bounded-reply"
               for v in strict.violations)


def test_violation_repr_readable():
    violation = InvariantViolation(3.5, "convergence", "view != truth")
    text = repr(violation)
    assert "convergence" in text and "3.50" in text


# -- end-of-run invariants, against small fakes ------------------------------------

def bare_checker():
    """A checker over a fabric that is only a clock and a config: the
    end-of-run checks read what they are handed, not the fabric."""
    env = Environment()
    return InvariantChecker(SimpleNamespace(
        config=SNSConfig(), cluster=SimpleNamespace(env=env)))


def names(checker):
    return [violation.invariant for violation in checker.violations]


@pytest.mark.parametrize("problems, expected", [
    (["slot 4 chose two values: 'a' and 'b'"], ["paxos-safety"]),
    ([], []),
])
def test_paxos_safety(problems, expected):
    checker = bare_checker()
    checker.final_consensus_checks(
        SimpleNamespace(safety_violations=lambda: problems))
    assert names(checker) == expected


@pytest.mark.parametrize("lost, expected", [
    ([{"user": "client3", "key": "quality", "version": 7,
       "reason": "absent"}], ["committed-write-loss"]),
    ([], []),
])
def test_committed_write_loss(lost, expected):
    checker = bare_checker()
    store = SimpleNamespace(
        backend=SimpleNamespace(verify_committed=lambda: lost))
    assert checker.final_profile_checks(store, service=None) == lost
    assert names(checker) == expected
    if lost:
        assert "client3/quality v7 absent" in checker.violations[0].detail


def test_a_store_without_an_oracle_loses_nothing():
    """The single WAL store holds every acknowledged commit in its one
    copy, so its oracle passes vacuously."""
    checker = bare_checker()
    store = ProfileStore()
    store.set("client3", "quality", 7)
    assert checker.final_profile_checks(store, service=None) == []
    assert checker.ok


@pytest.mark.parametrize("availability, expected", [
    (0.95, ["profile-read-availability"]),
    (0.99, []),
])
def test_profile_read_availability(availability, expected):
    checker = bare_checker()
    service = SimpleNamespace(profile_read_availability=availability,
                              profile_read_failures=5, profile_reads=100)
    store = SimpleNamespace(backend=SimpleNamespace(verify_committed=list))
    checker.final_profile_checks(store, service, read_slo=0.99)
    assert names(checker) == expected


def outcome(ok, status="ok"):
    return SimpleNamespace(ok=ok, response=SimpleNamespace(status=status))


@pytest.mark.parametrize("outcomes, in_flight, expected", [
    # 97 of 100 answered: an error page and a timeout are not answers,
    # and a request still in flight at the end counts against yield
    ([outcome(True)] * 97 + [outcome(True, "error"), outcome(False)], 1,
     ["yield-slo"]),
    # a degraded answer still counts
    ([outcome(True)] * 98 + [outcome(True, "stale")] * 2, 0, []),
])
def test_yield_slo(outcomes, in_flight, expected):
    checker = bare_checker()
    checker.final_yield_check(
        SimpleNamespace(outcomes=outcomes, in_flight=in_flight), 0.99)
    assert names(checker) == expected
