"""Reap must not drop accepted work: victim preference and queue drain.

Regression tests for the reap path — previously ``_reap_one`` killed
its victim outright, silently dropping every queued (already accepted)
request.  Now it prefers empty-queue victims, and a busy victim is
taken out of rotation, drained to same-type peers, and only then
killed."""

from repro.core.manager import REAP_DRAIN_TIMEOUT_S
from repro.core.messages import RegisterWorker, Request, WorkEnvelope
from repro.tacc.content import Content
from repro.tacc.worker import TACCRequest

from tests.core.conftest import fast_config, make_fabric


def boot(workers=2, config=None, seed=7):
    fabric = make_fabric(config=config or fast_config(), seed=seed)
    fabric.start_manager()
    fabric.start_frontend()
    for _ in range(workers):
        fabric.spawn_worker("test-worker")
    fabric.cluster.run(until=2.0)
    return fabric


def make_envelope(fabric, request_id=1):
    env = fabric.cluster.env
    content = Content(f"http://t/img{request_id}.jpg", "image/jpeg",
                      b"x" * 2048)
    work = TACCRequest(inputs=[content], params={}, user_id="client0")
    return WorkEnvelope(env, Request(env, None), work)


def test_reap_prefers_the_idle_victim():
    fabric = boot(workers=2)
    manager = fabric.manager
    busy = fabric.workers["test-worker.1"]
    idle = fabric.workers["test-worker.2"]
    # two envelopes: the first goes straight to the service loop's
    # pending get(), the second actually queues
    for index in range(2):
        assert busy.submit(make_envelope(fabric, request_id=index))

    manager._reap_one(manager.workers_of_type("test-worker"))

    assert not idle.alive          # the empty queue was the cheap kill
    assert busy.alive
    assert manager.reaps == 1
    assert manager.reap_drops == 0


def test_busy_victim_is_drained_to_peers_not_dropped():
    fabric = boot(workers=2)
    manager = fabric.manager
    victim = fabric.workers["test-worker.1"]
    peer = fabric.workers["test-worker.2"]
    envelopes = [make_envelope(fabric, request_id=i) for i in range(3)]
    for envelope in envelopes:
        assert victim.submit(envelope)

    # force the loaded worker to be the victim: it is the only candidate
    manager._reap_one([manager.workers[victim.name]])
    fabric.cluster.run(until=fabric.cluster.env.now + 5.0)

    assert not victim.alive
    assert manager.reap_drops == 0
    assert manager.reap_redispatches >= 2
    # every accepted request was answered, none lost to the reap
    assert all(envelope.triggered for envelope in envelopes)
    assert peer.served >= 2


def test_drain_blocks_victim_reregistration():
    fabric = boot(workers=2)
    manager = fabric.manager
    victim = fabric.workers["test-worker.1"]
    for index in range(2):
        assert victim.submit(make_envelope(fabric, request_id=index))

    manager._reap_one([manager.workers[victim.name]])
    assert victim.name in manager._reaping
    registration = RegisterWorker(
        worker_name=victim.name, worker_type=victim.worker_type,
        node_name=victim.node.name, stub=victim)
    # the victim's stub re-registering mid-drain must be refused, or
    # the next beacon would undo the reap
    assert manager.accept_worker(registration, endpoint=None) is False

    fabric.cluster.run(until=fabric.cluster.env.now + 5.0)
    assert victim.name not in manager.workers
    assert victim.name not in manager._reaping
    assert not victim.alive


def test_drain_deadline_bounds_a_wedged_victim():
    fabric = boot(workers=1)
    manager = fabric.manager
    victim = fabric.workers["test-worker.1"]
    victim.gray.hang(fabric.cluster.env.now)
    for index in range(3):
        assert victim.submit(make_envelope(fabric, request_id=index))
    fabric.cluster.run(until=fabric.cluster.env.now + 0.1)  # wedge it

    # no peers to drain to and the head is held forever: the deadline
    # fires, leftover work is counted dropped, and the victim still dies
    manager._reap_one([manager.workers[victim.name]])
    fabric.cluster.run(until=fabric.cluster.env.now + 1.0)
    assert victim.alive and victim.name in manager._reaping
    fabric.cluster.run(until=fabric.cluster.env.now + REAP_DRAIN_TIMEOUT_S)

    assert not victim.alive
    assert manager.reap_drops >= 1
    assert victim.name not in manager._reaping
