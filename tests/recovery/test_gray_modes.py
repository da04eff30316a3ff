"""Stub-level behavior of each injectable gray-failure mode.

These drive :class:`~repro.recovery.gray.GrayState` through a real
worker stub — submission, service, probes, drain — without any
supervisor in the loop, so each mode's mechanics are pinned down
independently of detection policy.
"""

import pytest

from repro.recovery import GrayState

from tests.recovery.conftest import boot_fabric, make_envelope


# -- GrayState math -------------------------------------------------------------


def test_healthy_state_is_identity():
    gray = GrayState()
    assert not gray.is_gray
    assert gray.inflation(100.0) == 1.0
    assert gray.describe() == "healthy"


def test_fail_slow_inflation_is_constant():
    gray = GrayState()
    gray.fail_slow(6.0, now=10.0)
    assert gray.is_gray
    assert gray.inflation(10.0) == 6.0
    assert gray.inflation(500.0) == 6.0
    assert gray.modes == ["fail-slow"]


def test_fail_slow_rejects_non_inflating_factor():
    with pytest.raises(ValueError):
        GrayState().fail_slow(1.0, now=0.0)


def test_leak_inflation_grows_linearly():
    gray = GrayState()
    gray.leak(0.5, now=10.0)
    assert gray.inflation(10.0) == pytest.approx(1.0)
    assert gray.inflation(14.0) == pytest.approx(1.0 + 0.5 * 4.0)
    with pytest.raises(ValueError):
        GrayState().leak(0.0, now=0.0)


def test_modes_compose_multiplicatively():
    gray = GrayState()
    gray.fail_slow(2.0, now=0.0)
    gray.leak(1.0, now=0.0)
    # slow factor 2 x leak (1 + 1*3) at t=3
    assert gray.inflation(3.0) == pytest.approx(8.0)
    assert gray.describe() == "fail-slow+leak"
    assert gray.injected_at == 0.0


# -- zombie: accept-and-drop while reporting ------------------------------------


def test_zombie_swallows_submissions_but_keeps_reporting():
    fabric = boot_fabric(workers=2)
    stub = fabric.workers["test-worker.1"]
    stub.gray.zombify(fabric.cluster.env.now)

    assert stub.submit(make_envelope(fabric)) is True
    assert stub.queue.length == 0
    assert stub.gray.dropped == 1
    served_before = stub.served

    fabric.cluster.run(until=6.0)
    # the report loop never stopped: the manager still trusts the zombie
    assert stub.alive
    assert stub.name in fabric.manager.workers
    assert stub.served == served_before


# -- hang: accept, then hold forever --------------------------------------------


def test_hung_worker_holds_the_head_request_forever():
    fabric = boot_fabric(workers=2)
    stub = fabric.workers["test-worker.1"]
    stub.gray.hang(fabric.cluster.env.now)

    envelope = make_envelope(fabric)
    assert stub.submit(envelope) is True
    fabric.cluster.run(until=10.0)

    assert stub.alive
    assert stub.busy            # wedged on the held request
    assert stub.gray.dropped == 1
    assert not envelope.triggered
    assert stub.served == 0


# -- probes ----------------------------------------------------------------------


def test_probe_reply_healthy_matches_nominal():
    fabric = boot_fabric(workers=1)
    stub = fabric.workers["test-worker.1"]
    service_s, nominal_s, output_ok = stub.probe_reply()
    assert nominal_s > 0
    assert service_s == pytest.approx(nominal_s)
    assert output_ok


def test_probe_reply_reports_gray_inflation():
    fabric = boot_fabric(workers=1)
    stub = fabric.workers["test-worker.1"]
    stub.gray.fail_slow(6.0, fabric.cluster.env.now)
    service_s, nominal_s, output_ok = stub.probe_reply()
    assert service_s == pytest.approx(6.0 * nominal_s)
    assert output_ok


def test_probe_reply_flags_corrupt_output():
    fabric = boot_fabric(workers=1)
    stub = fabric.workers["test-worker.1"]
    stub.gray.corrupt_output(fabric.cluster.env.now)
    service_s, nominal_s, output_ok = stub.probe_reply()
    assert service_s == pytest.approx(nominal_s)
    assert not output_ok


def test_probe_reply_silent_for_hang_zombie_and_death():
    fabric = boot_fabric(workers=3)
    hung = fabric.workers["test-worker.1"]
    zombie = fabric.workers["test-worker.2"]
    dead = fabric.workers["test-worker.3"]
    hung.gray.hang(fabric.cluster.env.now)
    zombie.gray.zombify(fabric.cluster.env.now)
    dead.kill()
    assert hung.probe_reply() is None
    assert zombie.probe_reply() is None
    assert dead.probe_reply() is None


def test_probe_is_side_effect_free():
    fabric = boot_fabric(workers=1)
    stub = fabric.workers["test-worker.1"]
    for _ in range(10):
        stub.probe_reply()
    assert stub.queue.length == 0
    assert stub.load == 0
    assert stub.served == 0


# -- corrupt output ships to the client -----------------------------------------


def test_corrupt_result_fails_end_to_end_validation():
    fabric = boot_fabric(workers=1)
    stub = fabric.workers["test-worker.1"]
    stub.gray.corrupt_output(fabric.cluster.env.now)
    result = serve_one(fabric, stub)
    assert stub.worker.validate_result(result) is False
    # a healthy worker's output passes
    healthy = boot_fabric(workers=1, seed=8)
    clean = serve_one(healthy, healthy.workers["test-worker.1"])
    assert clean.metadata.get("output_valid", True) is not False


def serve_one(fabric, stub):
    """What the stub replies with to one request it really serves."""
    envelope = make_envelope(fabric)
    assert stub.submit(envelope)
    return fabric.cluster.env.run(until=envelope)


# -- drain ------------------------------------------------------------------------


def test_drain_queue_empties_and_returns_in_order():
    fabric = boot_fabric(workers=1)
    stub = fabric.workers["test-worker.1"]
    envelopes = [make_envelope(fabric, request_id=i) for i in range(3)]
    for envelope in envelopes:
        assert stub.submit(envelope)
    drained = stub.drain_queue()
    # the head envelope was already handed to the service loop's pending
    # get(); the drain returns the still-queued tail, in order
    assert drained == envelopes[1:]
    assert stub.queue.length == 0
