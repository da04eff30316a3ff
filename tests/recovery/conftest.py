"""Shared assembly helpers for the recovery-layer tests."""

from repro.core.messages import Request, WorkEnvelope
from repro.tacc.content import Content
from repro.tacc.worker import TACCRequest

from tests.core.conftest import fast_config, make_fabric


def boot_fabric(workers=3, n_nodes=8, seed=7, config=None):
    """Manager + one front end + ``workers`` test workers, settled."""
    fabric = make_fabric(n_nodes=n_nodes, seed=seed,
                         config=config or fast_config())
    fabric.start_manager()
    fabric.start_frontend()
    for _ in range(workers):
        fabric.spawn_worker("test-worker")
    fabric.cluster.run(until=2.0)
    return fabric


def make_envelope(fabric, request_id=1, size=2048):
    """One hand-crafted request for driving a worker stub directly."""
    env = fabric.cluster.env
    content = Content(f"http://t/img{request_id}.jpg", "image/jpeg",
                      b"x" * size)
    work = TACCRequest(inputs=[content], params={}, user_id="client0")
    return WorkEnvelope(env, Request(env, None), work)
