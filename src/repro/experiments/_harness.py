"""Shared experiment harness: a minimal distillation service on the SNS
fabric, used by the Figure 8 / Table 2 / SAN-saturation drivers.

This is deliberately thinner than full TranSend: the scalability
experiments in Section 4.6 bypass cache misses by construction ("these
images would then remain resident in the cache partitions"), so the
harness charges a flat cache-hit cost instead of running cache nodes,
keeping the measured bottlenecks exactly the ones the paper varied
(distillers, front ends, SAN).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.cache.latency import MEAN_HIT_S
from repro.core.config import SNSConfig
from repro.core.fabric import SNSFabric
from repro.core.frontend import Response
from repro.core.manager_stub import DispatchError
from repro.distillers.jpeg import JpegDistiller
from repro.sim.cluster import Cluster
from repro.sim.network import MBPS
from repro.tacc.content import Content, ZeroPayload
from repro.tacc.customization import (
    PROFILE_READ_MISS_S,
    WriteThroughCache,
    open_profile_store,
)
from repro.tacc.registry import WorkerRegistry
from repro.tacc.worker import TACCRequest, WorkerError
from repro.workload.trace import TraceRecord


def run_grid(point_fn: Callable[..., Any],
             points: Sequence[Mapping[str, Any]],
             jobs: int = 1, *, label: str = "grid"):
    """Fan the independent grid points of an experiment sweep across
    worker processes (:mod:`repro.fanout`).

    Each point is one kwargs mapping for the **module-level**
    ``point_fn``; results come back in point order regardless of
    completion order, so a sweep assembled from the returned
    :meth:`~repro.fanout.SweepResult.values` is byte-identical at any
    ``jobs``.  Grid points must be self-contained (they rebuild any
    shared input, e.g. a workload trace, from the seed inside the
    shard) — that is what makes them safe to run anywhere.
    """
    from repro.fanout import ShardSpec, run_sharded

    specs = []
    for index, point in enumerate(points):
        detail = ",".join(f"{key}={point[key]}" for key in point)
        specs.append(ShardSpec(
            shard_id=f"{label}[{index}]({detail})",
            fn=point_fn, kwargs=dict(point)))
    return run_sharded(specs, jobs=jobs)


def jpeg_pool(n: int, size_bytes: int = 10240,
              host: str = "bench") -> List[TraceRecord]:
    """The request pool the bench drivers cycle through: ``n`` distinct
    clients, each asking for its own JPEG of ``size_bytes``."""
    return [TraceRecord(0.0, f"client{index}",
                        f"http://{host}/img{index}.jpg", "image/jpeg",
                        size_bytes)
            for index in range(n)]


#: single-backend recovery model when chaos kills the store: restart
#: fork plus WAL replay proportional to committed transactions — the
#: cost curve cheap recovery exists to flatten.
SINGLE_RESTART_S = 0.4
SINGLE_REPLAY_PER_TXN_S = 0.002


class BenchService:
    """Distill every request through the JPEG distiller; fall back to
    the original on dispatch failure.

    With a ``store``, a real profile read sits in front of every
    distillation — the path brick chaos campaigns measure.  Reads go
    through a per-front-end
    :class:`~repro.tacc.customization.WriteThroughCache` over either
    backend.  A failed read (no quorum, or the single-node store down
    for replay) degrades BASE-style to an empty profile — the request
    still completes, but the read counts against profile availability.
    """

    worker_type = JpegDistiller.worker_type

    def __init__(self, cluster: Cluster, store: Any = None) -> None:
        self.cluster = cluster
        self.store = store
        self._profile_caches: Dict[str, Any] = {}
        #: single-backend outage window (chaos adapter); the dstore
        #: backend never sets this — bricks fail individually instead.
        self.store_down_until = 0.0
        self.profile_reads = 0
        self.profile_read_failures = 0

    def handle(self, frontend, request):
        # a plain method: the front end drives the generator it returns
        # itself, with no delegating frame around every resume
        if self.store is None:
            return self._distill(frontend, request, {})
        return self._read_profile_and_distill(frontend, request)

    def profile_cache_for(self, frontend_name: str):
        if frontend_name not in self._profile_caches:
            self._profile_caches[frontend_name] = WriteThroughCache(
                self.store)
        return self._profile_caches[frontend_name]

    @property
    def store_available(self) -> bool:
        return self.cluster.env.now >= self.store_down_until

    def _read_profile_and_distill(self, frontend, request):
        from repro.dstore.store import QuorumError, ReadUnavailable
        record = request.record
        trace = request.trace
        env = self.cluster.env
        cache = self.profile_cache_for(frontend.name)
        cached = record.client_id in cache._cache
        self.profile_reads += 1
        profile = None
        if cached:
            profile = cache.get(record.client_id)
        elif not self.store_available:
            self.profile_read_failures += 1
        else:
            mark = env.now
            try:
                profile = cache.get(record.client_id)
            except (QuorumError, ReadUnavailable):
                self.profile_read_failures += 1
            backend = self.store.backend
            yield env.timeout(backend.last_op_cost_s or PROFILE_READ_MISS_S)
            if trace is not None:
                trace.record(
                    "profile-read", "service", mark,
                    component=backend.component,
                    annotations={"hops": backend.last_op_hops,
                                 "ok": profile is not None})
        return (yield from self._distill(frontend, request, profile or {}))

    def _distill(self, frontend, request, profile):
        env = self.cluster.env
        record = request.record
        mark = env._now
        # a flat cache-hit cost: the original is resident (Section 4.6)
        yield env.timeout(MEAN_HIT_S)
        if request.trace is not None:
            request.trace.record("cache-hit", "cache", mark,
                                 annotations={"hit": True})
        content = Content(record.url, record.mime,
                          ZeroPayload(record.size_bytes))
        work = TACCRequest(inputs=[content], params={},
                           profile=profile, user_id=record.client_id)
        try:
            result = yield from frontend.stub.dispatch(
                request, work, self.worker_type)
        except (DispatchError, WorkerError):
            return Response(status="fallback", path="original",
                            content=content, size_bytes=content.size)
        return Response(status="ok", path="distilled", content=result,
                        size_bytes=result.size)

    @property
    def profile_read_availability(self) -> float:
        if self.profile_reads == 0:
            return 1.0
        return 1.0 - self.profile_read_failures / self.profile_reads

    def brownout_counters(self) -> Dict[str, int]:
        """The degradation ladder's counters (chaos reports list them);
        this service has no ladder."""
        return {}


def build_bench_fabric(
    n_nodes: int = 20,
    n_overflow: int = 0,
    seed: int = 1997,
    config: Optional[SNSConfig] = None,
    san_bandwidth_bps: float = 100 * MBPS,
) -> SNSFabric:
    """Assemble the bench fabric ``config`` describes.  Its
    ``profile_backend`` puts a real profile store on the request path
    (``None``: no profile reads, the scalability benchmarks' shape) and
    hangs it off the fabric as ``profile_store`` / ``profile_bricks``
    for chaos and supervision to reach; its ``service_backend``
    ``"degradable"`` installs
    :class:`~repro.degrade.service.DegradableBenchService` (freshness
    cache, capacity-limited origin with circuit breaker, brownout
    distiller) over whatever store was chosen — the shape the
    flash-crowd campaigns run, with or without a controller driving it.
    """
    config = (config or SNSConfig()).validate()
    cluster = Cluster(seed=seed, san_bandwidth_bps=san_bandwidth_bps)
    cluster.add_nodes(n_nodes)
    if n_overflow:
        cluster.add_nodes(n_overflow, prefix="ovf", overflow=True)
    registry = WorkerRegistry()
    store, bricks = open_profile_store(cluster, config.profile_backend)
    if config.service_backend == "degradable":
        from repro.degrade.service import (BrownoutJpegDistiller,
                                           DegradableBenchService)
        registry.register_class(BrownoutJpegDistiller)
        service = DegradableBenchService(cluster, store, config)
    else:
        registry.register_class(JpegDistiller)
        service = BenchService(cluster, store)
    fabric = SNSFabric(cluster, registry, config, service)
    fabric.profile_store = store
    fabric.profile_bricks = bricks
    return fabric
