"""Fault-tolerance tests: the Section 3.1.3 process-peer claims.

* The manager reports distiller failures to the manager stubs, which
  update their caches of where distillers are running.
* The manager detects and restarts a crashed front end.
* The front end detects and restarts a crashed manager.
* Timeouts are the backup failure detector.
"""

import pytest

from repro.chaos.campaign import (Faults, KillFrontEnd, KillManager,
                                  KillWorker)
from repro.core.manager import SPAWN_DELAY_S
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from tests.core.conftest import fast_config, make_fabric, make_record


def drive(fabric, rate=20.0, duration=40.0, seed=1, timeout_s=15.0):
    engine = PlaybackEngine(fabric.cluster.env, fabric.submit,
                            rng=RandomStreams(seed).stream("pb"),
                            timeout_s=timeout_s)
    pool = [make_record(i) for i in range(30)]
    fabric.cluster.env.process(engine.constant_rate(rate, duration, pool))
    return engine


def test_worker_crash_detected_and_routed_around(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    engine = drive(fabric, rate=20.0, duration=40.0)
    victim = fabric.alive_workers()[0]
    Faults(fabric).arm((KillWorker(at=10.0),))
    fabric.cluster.run(until=60.0)
    # broken connection detected, worker dropped from manager state
    assert fabric.manager.worker_failures_detected >= 1
    assert victim.name not in fabric.manager.workers
    # service kept working: vast majority of requests succeeded
    total = len(engine.outcomes)
    assert len(engine.completed()) > total * 0.95
    # FE stub cache no longer lists the victim
    frontend = next(iter(fabric.frontends.values()))
    assert victim.name not in frontend.stub.adverts


def test_all_workers_crash_service_recovers(fabric):
    """Killing every worker forces on-demand respawn under load."""
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    engine = drive(fabric, rate=15.0, duration=40.0)
    originals = fabric.alive_workers()
    Faults(fabric).arm(tuple(KillWorker(at=10.0 + 0.1 * index)
                             for index in range(len(originals))))
    fabric.cluster.run(until=60.0)
    assert not any(stub.alive for stub in originals)
    assert len(fabric.alive_workers("test-worker")) >= 1
    late_ok = [outcome for outcome in engine.completed()
               if outcome.submitted_at > 20.0]
    assert late_ok  # service came back


def test_manager_crash_service_continues_on_stale_hints(fabric):
    """'The cached information provides a backup so that the system can
    continue to operate (using slightly stale load data) even if the
    manager crashes.'"""
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    engine = drive(fabric, rate=20.0, duration=30.0)
    Faults(fabric).arm((KillManager(at=10.0),))
    fabric.cluster.run(until=14.0)
    # manager is dead but requests in this window still complete
    during_outage = [o for o in engine.completed()
                     if 10.0 < o.submitted_at < 13.0]
    assert during_outage
    fabric.cluster.run(until=60.0)
    assert len(engine.completed()) > len(engine.outcomes) * 0.95


def test_frontend_restarts_crashed_manager(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    old_manager = fabric.manager
    old_incarnation = old_manager.incarnation
    Faults(fabric).arm((KillManager(at=5.0),))
    fabric.cluster.run(until=30.0)
    assert fabric.manager is not old_manager
    assert fabric.manager.alive
    assert fabric.manager.incarnation > old_incarnation
    assert fabric.manager_restarts == 1
    # workers re-registered with the new incarnation
    assert len(fabric.manager.workers) == 1
    # FE re-registered too
    assert len(fabric.manager.frontends) == 1


def test_manager_restart_is_idempotent_across_frontends():
    fabric = make_fabric(n_nodes=10)
    fabric.boot(n_frontends=3, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    Faults(fabric).arm((KillManager(at=5.0),))
    fabric.cluster.run(until=30.0)
    # three watchdogs noticed, but exactly one restart happened
    assert fabric.manager_restarts == 1
    assert fabric.manager.alive


def test_manager_restarts_crashed_frontend(fabric):
    # two front ends: KillFrontEnd spares the last one
    fabric.boot(n_frontends=2, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    frontend = fabric.frontends["fe0"]
    Faults(fabric).arm((KillFrontEnd(at=5.0),))
    fabric.cluster.run(until=20.0)
    assert not frontend.alive
    assert fabric.manager.frontend_restarts == 1
    replacement = fabric.frontends[frontend.name]
    assert replacement is not frontend
    assert replacement.alive
    # the replacement re-registered with the manager
    assert frontend.name in fabric.manager.frontends


def test_frontend_restart_is_single_flight(fabric):
    """Two managers (a deposed one and its successor) can both see one
    front end die; inside the fork delay the second request is refused
    and the front end comes back once."""
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    env = fabric.cluster.env
    frontend = next(iter(fabric.frontends.values()))
    frontend.kill()
    assert fabric.restart_frontend(frontend.name, frontend.node.name)
    fabric.cluster.run(until=env.now + SPAWN_DELAY_S / 2)
    assert not fabric.restart_frontend(frontend.name,
                                       frontend.node.name)
    fabric.cluster.run(until=env.now + 5.0)
    assert fabric.frontend_restarts == 1
    assert fabric.frontends[frontend.name].alive
    # the slot is free again for the next crash
    fabric.frontends[frontend.name].kill()
    assert fabric.restart_frontend(frontend.name, frontend.node.name)


def test_client_side_balancing_masks_frontend_failure():
    """fabric.submit (the client-side JavaScript stand-in) skips dead
    front ends, so service continues during the FE outage."""
    fabric = make_fabric(n_nodes=10)
    fabric.boot(n_frontends=2, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    engine = drive(fabric, rate=20.0, duration=30.0, timeout_s=10.0)
    Faults(fabric).arm((KillFrontEnd(at=10.0),))
    fabric.cluster.run(until=50.0)
    during = [o for o in engine.outcomes if 10.5 < o.submitted_at < 14.0]
    ok_during = [o for o in during if o.ok]
    assert len(ok_during) >= len(during) * 0.9


def test_hung_worker_expired_by_timeout(fabric):
    """A worker that stops reporting (but whose connection stays open)
    is removed by the timeout backup detector."""
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    victim = fabric.alive_workers()[0]

    # simulate a hang: stop the service loop and the report timer
    # without closing anything
    def hang(env):
        yield env.timeout(5.0)
        for process in list(victim._procs):
            if process.is_alive:
                process.interrupt("hang")
        victim._procs.clear()
        for timer in victim._timers:
            timer.cancel()
        victim._timers.clear()

    fabric.cluster.env.process(hang(fabric.cluster.env))
    fabric.cluster.run(until=20.0)
    assert victim.name not in fabric.manager.workers
    assert fabric.manager.worker_failures_detected >= 1


def test_repeated_manager_crashes_always_recover(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    Faults(fabric).arm(tuple(KillManager(at=crash_time)
                             for crash_time in (5.0, 25.0, 45.0)))
    fabric.cluster.run(until=70.0)
    assert fabric.manager.alive
    assert fabric.manager_restarts == 3
    assert len(fabric.manager.workers) == 1
    reply = fabric.submit(make_record())
    response = fabric.cluster.env.run(until=reply)
    assert response.status == "ok"
