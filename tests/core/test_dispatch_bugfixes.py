"""Regression tests for three dispatch-path bugs.

1. A deadline that expires during the SAN transfer used to arm a
   zero-budget reply timer that fired instantly and was misclassified as
   a *worker* timeout — popping a healthy worker's advert and telling
   the supervisor to kill it.  It must surface as a deadline expiry.
2. ``_backoff_delay`` used to apply the cap before the jitter multiply,
   so an up-jittered delay could exceed ``dispatch_backoff_cap_s``.
3. ``_wait_for_worker`` used to sleep in whole ``beacon_interval_s``
   steps, overshooting its deadline by up to one interval.
"""

import dataclasses

import pytest

from repro.core.manager_stub import DispatchError
from repro.core.messages import Request
from repro.sim.cluster import Cluster
from repro.tacc.content import Content
from repro.tacc.worker import TACCRequest

from tests.core.conftest import fast_config, make_fabric


def make_request(size=10240):
    content = Content("http://bench/img0.jpg", "image/jpeg", b"x" * size)
    return TACCRequest(inputs=[content], params={}, user_id="client0"), \
        content


# -- 1: deadline expiry during the SAN transfer -------------------------------

def test_deadline_eaten_by_san_transfer_is_not_a_worker_timeout():
    fabric = make_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    env = fabric.cluster.env
    stub = fabric.alive_frontends()[0].stub
    killed = []
    stub.on_worker_timeout = killed.append
    request, content = make_request()
    # the whole deadline is exactly the SAN transfer: after shipping the
    # input, zero budget remains for the reply timer
    transfer = fabric.cluster.network.transfer_delay(content.size)
    stub.config = dataclasses.replace(stub.config,
                                      dispatch_deadline_s=transfer)
    errors = []

    def run_dispatch():
        try:
            yield from stub.dispatch(Request(env, None), request,
                                     "test-worker")
        except DispatchError as error:
            errors.append(str(error))

    fabric.cluster.run(until=env.process(run_dispatch()))
    assert errors and "deadline exhausted" in errors[0]
    assert stub.deadline_expiries == 1
    assert stub.timeouts == 0          # NOT misread as a worker timeout
    assert killed == []                # the supervisor was never told
    assert len(stub.candidates("test-worker")) == 1  # advert retained


def test_healthy_dispatch_still_counts_no_expiry():
    fabric = make_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    from tests.core.conftest import make_record
    reply = fabric.submit(make_record())
    response = fabric.cluster.env.run(until=reply)
    assert response.status == "ok"
    stub = fabric.alive_frontends()[0].stub
    assert stub.deadline_expiries == 0
    assert stub.timeouts == 0


# -- 2: backoff cap is a ceiling on the jittered delay ------------------------

def make_stub(config, owner="fe0", seed=7):
    from repro.core.manager_stub import ManagerStub
    cluster = Cluster(seed=seed)
    return ManagerStub(cluster, config, owner,
                       cluster.streams.stream(f"lottery:{owner}"))


def test_backoff_cap_applies_after_jitter():
    """base=0.4, jitter=0.5 => raw jittered delays span 0.3..0.5; a cap
    of 0.45 must bound every draw (pre-fix, up-jittered draws escaped)."""
    config = fast_config(dispatch_backoff_base_s=0.4,
                         dispatch_backoff_factor=2.0,
                         dispatch_backoff_cap_s=0.45,
                         dispatch_backoff_jitter=0.5)
    stub = make_stub(config)
    delays = [stub._backoff_delay(1) for _ in range(200)]
    assert max(delays) <= 0.45
    # the clamp actually engaged: some draws landed exactly on the cap
    assert delays.count(0.45) >= 1
    # and the jitter is still live below the cap
    assert len({delay for delay in delays if delay < 0.45}) > 1


def test_backoff_deep_retries_pin_to_cap_exactly():
    config = fast_config(dispatch_backoff_base_s=0.1,
                         dispatch_backoff_factor=2.0,
                         dispatch_backoff_cap_s=0.5,
                         dispatch_backoff_jitter=0.5)
    stub = make_stub(config)
    for retry_number in (6, 8, 12):
        assert stub._backoff_delay(retry_number) == 0.5


# -- 3: _wait_for_worker never overshoots its deadline ------------------------

def test_wait_for_worker_clamps_polls_to_the_deadline():
    """beacon_interval 5s, budget 1s: pre-fix the single poll slept the
    whole interval, overshooting the deadline fivefold."""
    config = fast_config(beacon_interval_s=5.0, dispatch_timeout_s=3.0)
    stub = make_stub(config)
    env = stub.cluster.env
    results = []

    def wait():
        state = yield from stub._wait_for_worker(
            "test-worker", deadline_at=env.now + 1.0)
        results.append(state)

    env.run(until=env.process(wait()))
    assert results == [None]
    assert env.now == pytest.approx(1.0)
    assert stub.stall_s == pytest.approx(1.0)


def test_wait_for_worker_respects_dispatch_timeout_budget():
    """No explicit deadline: the budget is dispatch_timeout_s and the
    poll steps must land exactly on it, not one beacon interval past."""
    config = fast_config(beacon_interval_s=2.0, dispatch_timeout_s=3.0)
    stub = make_stub(config)
    env = stub.cluster.env
    results = []

    def wait():
        state = yield from stub._wait_for_worker("test-worker")
        results.append(state)

    env.run(until=env.process(wait()))
    assert results == [None]
    assert env.now == pytest.approx(3.0)
