"""Shared fixtures for SNS-layer tests: a tiny service and test workers."""

import pytest

from repro.core.config import SNSConfig
from repro.core.fabric import SNSFabric
from repro.core.frontend import Response
from repro.core.manager_stub import DispatchError
from repro.sim.cluster import Cluster
from repro.tacc.content import Content
from repro.tacc.registry import WorkerRegistry
from repro.tacc.worker import TACCRequest, Transformer, WorkerError


class TestWorker(Transformer):
    """CPU-bound worker with a fixed 40 ms cost (=> ~25 req/s each)."""

    __test__ = False  # not a pytest class
    worker_type = "test-worker"
    cost_s = 0.040

    def work_estimate(self, request):
        return self.cost_s

    def transform(self, content, request):
        if content.data.startswith(b"PATHOLOGICAL"):
            raise WorkerError(f"cannot process {content.url}")
        return content.derive(content.data[: max(1, content.size // 2)],
                              worker=self.worker_type)

    def simulate(self, request):
        return self.transform(request.content, request)


class DispatchService:
    """Minimal service logic: push every request through one worker type
    and fall back to the original content on dispatch failure (the BASE
    approximate-answer pattern)."""

    worker_type = "test-worker"

    def handle(self, frontend, request):
        record = request.record
        content = Content(record.url, record.mime, b"x" * record.size_bytes)
        work = TACCRequest(inputs=[content], params={},
                           user_id=record.client_id)
        try:
            result = yield from frontend.stub.dispatch(
                request, work, self.worker_type)
        except (DispatchError, WorkerError):
            return Response(status="fallback", path="original",
                            content=content, size_bytes=content.size)
        return Response(status="ok", path="distilled", content=result,
                        size_bytes=result.size)


def fast_config(**overrides) -> SNSConfig:
    """Config tuned so tests converge in a few simulated seconds."""
    defaults = dict(
        beacon_interval_s=0.5,
        report_interval_s=0.5,
        spawn_threshold=6.0,
        spawn_damping_s=4.0,
        reap_after_s=10.0,
        dispatch_timeout_s=3.0,
        worker_timeout_s=3.0,
        frontend_connection_overhead_s=0.001,
    )
    defaults.update(overrides)
    return SNSConfig(**defaults)


def make_registry() -> WorkerRegistry:
    registry = WorkerRegistry()
    registry.register_class(TestWorker)
    return registry


def make_fabric(n_nodes=8, n_overflow=0, config=None, seed=7,
                **fabric_kwargs):
    cluster = Cluster(seed=seed)
    cluster.add_nodes(n_nodes)
    if n_overflow:
        cluster.add_nodes(n_overflow, prefix="ovf", overflow=True)
    fabric = SNSFabric(cluster, make_registry(),
                       config or fast_config(), DispatchService(),
                       **fabric_kwargs)
    return fabric


@pytest.fixture
def fabric():
    return make_fabric()


def make_record(index=0, size=10240, mime="image/jpeg"):
    from repro.workload.trace import TraceRecord
    return TraceRecord(
        timestamp=0.0,
        client_id=f"client{index % 50}",
        url=f"http://bench/img{index}.jpg",
        mime=mime,
        size_bytes=size,
    )
