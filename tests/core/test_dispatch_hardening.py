"""Tests for the hardened request path: exponential backoff with
deterministic jitter, per-request deadline propagation, worker-side
expired-request shedding, admission control, and the structured
spawn-failure log."""

import pytest

from repro.core.config import (DISPATCH_BACKOFF_BASE_S, DISPATCH_BACKOFF_CAP_S,
                               DISPATCH_BACKOFF_FACTOR)
from repro.core.manager_stub import DispatchError, ManagerStub
from repro.core.messages import Request, WorkEnvelope
from repro.core.worker_stub import WorkerStub
from repro.sim.cluster import Cluster

from tests.core.conftest import fast_config, make_fabric, make_record


def make_stub(config=None, owner="fe0", seed=7):
    cluster = Cluster(seed=seed)
    return ManagerStub(cluster, config or fast_config(), owner,
                       cluster.streams.stream(f"lottery:{owner}"))


# -- backoff ------------------------------------------------------------------

def test_backoff_grows_exponentially_and_caps():
    stub = make_stub()
    delays = [stub._backoff_delay(n) for n in range(1, 10)]
    for n, delay in enumerate(delays, start=1):
        nominal = DISPATCH_BACKOFF_BASE_S * DISPATCH_BACKOFF_FACTOR ** (n - 1)
        # ±25 % jitter around the doubling delay, then the cap
        assert min(0.75 * nominal, DISPATCH_BACKOFF_CAP_S) <= delay \
            <= min(1.25 * nominal, DISPATCH_BACKOFF_CAP_S)
    # consecutive jitter bands do not overlap: the delay grows until
    # the cap, and stays there
    assert delays[:6] == sorted(set(delays[:6]))
    assert delays[6:] == [DISPATCH_BACKOFF_CAP_S] * 3


def test_backoff_jitter_bounded_and_deterministic():
    one = make_stub(seed=3)
    two = make_stub(seed=3)
    delays_one = [one._backoff_delay(1) for _ in range(20)]
    delays_two = [two._backoff_delay(1) for _ in range(20)]
    assert delays_one == delays_two  # same seed, same owner => identical
    for delay in delays_one:
        assert 0.0375 <= delay <= 0.0625  # base * (1 ± jitter/2)
    assert len(set(delays_one)) > 1  # it actually jitters


def test_backoff_streams_differ_across_frontends():
    config = fast_config()
    fe0 = make_stub(config, owner="fe0", seed=3)
    fe1 = make_stub(config, owner="fe1", seed=3)
    assert [fe0._backoff_delay(1) for _ in range(5)] != \
        [fe1._backoff_delay(1) for _ in range(5)]


# -- deadline propagation -----------------------------------------------------

def test_envelope_carries_deadline(monkeypatch):
    captured = []
    original = WorkerStub.submit

    def capture(self, envelope):
        captured.append(envelope)
        return original(self, envelope)

    monkeypatch.setattr(WorkerStub, "submit", capture)
    fabric = make_fabric(config=fast_config(dispatch_deadline_s=4.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    start = fabric.cluster.env.now
    reply = fabric.submit(make_record())
    fabric.cluster.env.run(until=reply)
    assert captured
    # the envelope carries the front end's request record by reference
    assert captured[0].request is reply
    deadline_at = reply.deadline_at
    assert start + 4.0 <= deadline_at <= start + 4.0 + 0.5  # overheads


def test_default_deadline_is_full_attempt_budget(monkeypatch):
    """With no explicit deadline the behavior matches the seed: the
    budget is attempts x timeout, so the first attempt's timer is the
    plain dispatch timeout."""
    captured = []
    original = WorkerStub.submit

    def capture(self, envelope):
        captured.append(envelope)
        return original(self, envelope)

    monkeypatch.setattr(WorkerStub, "submit", capture)
    fabric = make_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    config = fabric.config
    start = fabric.cluster.env.now
    reply = fabric.submit(make_record())
    fabric.cluster.env.run(until=reply)
    budget = config.dispatch_attempts * config.dispatch_timeout_s
    assert captured[0].request.deadline_at == pytest.approx(
        start + budget, abs=budget)


def test_deadline_exhaustion_fails_fast():
    """Every worker swallows requests (partitioned): a 4 s deadline must
    end the dispatch well before the 2 x 3 s attempt budget would."""
    fabric = make_fabric(config=fast_config(dispatch_deadline_s=4.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    for stub in fabric.alive_workers():
        stub.partition(60.0)
    frontend = fabric.alive_frontends()[0]
    start = fabric.cluster.env.now
    reply = fabric.submit(make_record())
    response = fabric.cluster.env.run(until=reply)
    elapsed = fabric.cluster.env.now - start
    assert response.status == "fallback"  # BASE approximate answer
    assert elapsed <= 4.0 + 1.0
    assert frontend.stub.deadline_expiries + frontend.stub.timeouts >= 1


def test_retries_wait_backoff_between_attempts():
    fabric = make_fabric(config=fast_config(
        dispatch_deadline_s=5.0, dispatch_timeout_s=1.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    for stub in fabric.alive_workers():
        stub.partition(60.0)
    reply = fabric.submit(make_record())
    fabric.cluster.env.run(until=reply)
    frontend = fabric.alive_frontends()[0]
    assert frontend.stub.retries >= 1
    assert frontend.stub.backoff_waits >= 1


# -- worker-side shedding -----------------------------------------------------

def envelope_with_deadline(fabric, deadline_at):
    env = fabric.cluster.env
    record = make_record()
    from repro.tacc.content import Content
    from repro.tacc.worker import TACCRequest
    content = Content(record.url, record.mime, b"x" * record.size_bytes)
    request = Request(env, record)
    request.deadline_at = deadline_at
    return WorkEnvelope(env, request, TACCRequest(
        inputs=[content], params={}, user_id="c"))


def test_worker_sheds_expired_requests_when_enabled():
    fabric = make_fabric(config=fast_config(shed_expired_requests=True))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    worker = fabric.alive_workers()[0]
    env = fabric.cluster.env
    expired = envelope_with_deadline(fabric, env.now - 1.0)
    assert worker.submit(expired)
    fabric.cluster.run(until=env.now + 2.0)
    assert worker.expired == 1
    assert not expired.triggered
    live = envelope_with_deadline(fabric, env.now + 30.0)
    assert worker.submit(live)
    fabric.cluster.run(until=env.now + 2.0)
    assert live.triggered


def test_worker_serves_expired_requests_by_default():
    """The seed behavior is preserved: without the opt-in flag, a stale
    deadline is ignored."""
    fabric = make_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    worker = fabric.alive_workers()[0]
    env = fabric.cluster.env
    stale = envelope_with_deadline(fabric, env.now - 1.0)
    assert worker.submit(stale)
    fabric.cluster.run(until=env.now + 2.0)
    assert worker.expired == 0
    assert stale.triggered


# -- admission control --------------------------------------------------------

def test_frontend_sheds_when_netstack_backlogged():
    fabric = make_fabric(config=fast_config(
        admission_max_backlog_s=0.5))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    frontend = fabric.alive_frontends()[0]
    # exhaust the thread pool and pile seconds of work on the netstack
    while frontend.threads.length:
        frontend.threads.get_nowait()
    frontend.netstack._busy_until = fabric.cluster.env.now + 5.0
    reply = fabric.submit(make_record())
    assert reply.triggered
    response = fabric.cluster.env.run(until=reply)
    assert response.status == "error"
    assert response.path == "shed"
    assert frontend.shed == 1


def test_frontend_admits_when_threads_free():
    fabric = make_fabric(config=fast_config(
        admission_max_backlog_s=0.5))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    frontend = fabric.alive_frontends()[0]
    frontend.netstack._busy_until = fabric.cluster.env.now + 5.0
    reply = fabric.submit(make_record())  # threads free => admitted
    response = fabric.cluster.env.run(until=reply)
    assert response.status in ("ok", "fallback")
    assert frontend.shed == 0


def test_admission_control_off_by_default():
    fabric = make_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    frontend = fabric.alive_frontends()[0]
    while frontend.threads.length:
        frontend.threads.get_nowait()
    frontend.netstack._busy_until = fabric.cluster.env.now + 100.0
    assert not frontend._should_shed()


# -- spawn-failure log --------------------------------------------------------

def test_spawn_failure_log_records_exception_context(monkeypatch):
    fabric = make_fabric(config=fast_config(spawn_damping_s=0.5))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)

    def broken_spawn(worker_type, node=None, **kwargs):
        raise RuntimeError("no binary for test-worker on this node")

    monkeypatch.setattr(fabric, "spawn_worker", broken_spawn)
    manager = fabric.manager
    fabric.alive_workers()[0].kill()
    # demand triggers an on-demand spawn, which hits the broken exec
    reply = fabric.submit(make_record())
    fabric.cluster.env.run(until=reply)
    assert manager.spawn_failures >= 1
    assert manager.spawn_failure_log
    failure = manager.spawn_failure_log[0]
    assert failure.reason == "RuntimeError"
    assert "no binary" in failure.detail
    assert failure.worker_type == "test-worker"
    assert failure.node_name
    assert "RuntimeError" in repr(failure)
    assert manager.spawn_failures == len(manager.spawn_failure_log)


def test_spawn_failure_log_records_node_down():
    fabric = make_fabric(config=fast_config(spawn_damping_s=0.5))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    manager = fabric.manager
    # crash the chosen node inside the SPAWN_DELAY window
    target = fabric.cluster.free_node()
    manager.spawn(manager._spawn_after_delay("test-worker", target))
    target.crash()
    fabric.cluster.run(until=fabric.cluster.env.now + 3.0)
    assert manager.spawn_failure_log
    failure = manager.spawn_failure_log[0]
    assert failure.reason == "node-down"
    assert failure.node_name == target.name
