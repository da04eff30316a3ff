"""Tests for fault injection."""

import pytest

from repro.sim.failures import FaultInjector
from repro.sim.kernel import Environment, Interrupt
from repro.sim.rng import RandomStreams


class KillableStub:
    """Minimal object satisfying the killable protocol."""

    def __init__(self, env, name):
        self.env = env
        self.name = name
        self.killed_at = None
        self.process = env.process(self._loop())

    def _loop(self):
        try:
            while True:
                yield self.env.timeout(1.0)
        except Interrupt:
            pass

    def kill(self):
        self.killed_at = self.env.now
        if self.process.is_alive:
            self.process.interrupt("killed")


def test_kill_at_fires_at_requested_time():
    env = Environment()
    injector = FaultInjector(env)
    target = KillableStub(env, "distiller-1")
    injector.kill_at(42.0, target)
    env.run(until=100.0)
    assert target.killed_at == 42.0
    assert len(injector.log) == 1
    assert injector.log[0].kind == "kill"
    assert injector.log[0].target == "distiller-1"


def test_kill_in_the_past_rejected():
    env = Environment()
    injector = FaultInjector(env)
    target = KillableStub(env, "t")
    injector.kill_at(5.0, target)

    def late(env):
        yield env.timeout(10.0)
        injector.kill_at(7.0, KillableStub(env, "other"))

    env.process(late(env))
    with pytest.raises(ValueError):
        env.run(until=20.0)


def test_past_time_rejected_at_schedule_time():
    """Validation happens in the scheduling call itself — synchronously,
    where the caller can catch it — not later inside the spawned
    process."""
    env = Environment()
    injector = FaultInjector(env)
    env.run(until=10.0)
    with pytest.raises(ValueError):
        injector.kill_at(7.0, KillableStub(env, "k"))
    with pytest.raises(ValueError):
        injector.partition_at(9.9, KillableStub(env, "p"), 5.0)
    # nothing was scheduled: the clock can keep running cleanly
    env.run(until=20.0)
    assert injector.log == []


def test_rolling_kills_round_robin():
    env = Environment()
    injector = FaultInjector(env)
    population = [KillableStub(env, f"w{i}") for i in range(10)]

    def provider():
        return [t for t in population if t.killed_at is None]

    injector.rolling_kills(provider, start=10.0, period_s=5.0,
                           stop_at=31.0)
    env.run(until=60.0)
    killed = [t.name for t in population if t.killed_at is not None]
    # kills at 15, 20, 25, 30 — deterministic, no RNG involved
    assert len(killed) == 4
    assert injector.rng is None


def test_rolling_kills_validates_period():
    env = Environment()
    injector = FaultInjector(env)
    with pytest.raises(ValueError):
        injector.rolling_kills(lambda: [], start=0.0, period_s=0.0,
                               stop_at=10.0)


def test_random_kills_hit_live_targets_only():
    env = Environment()
    rng = RandomStreams(3).stream("faults")
    injector = FaultInjector(env, rng)
    population = [KillableStub(env, f"w{i}") for i in range(5)]

    def provider():
        return [t for t in population if t.killed_at is None]

    injector.random_kills(provider, mtbf_s=10.0, stop_at=200.0)
    env.run(until=200.0)
    killed = [t for t in population if t.killed_at is not None]
    assert killed  # with mtbf 10 s over 200 s some faults land
    # no double kills
    assert len(injector.log) == len(killed)


def test_random_kills_require_rng():
    env = Environment()
    injector = FaultInjector(env)
    with pytest.raises(ValueError):
        injector.random_kills(lambda: [], mtbf_s=1.0, stop_at=10.0)
