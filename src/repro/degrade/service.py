"""Degradation-aware bench service + brownout distiller.

:class:`DegradableBenchService` is the experiment-harness service with
every ladder level wired into its request path:

* a :class:`~repro.degrade.staleness.FreshnessCache` of distilled
  results — fresh hits are served always, stale hits only while the
  ladder is at serve-stale or above;
* an origin model with finite capacity (a :class:`~repro.sim.network.
  Link` serializing fetches), guarded by the origin
  :class:`~repro.degrade.guards.CircuitBreaker` — a cold-miss storm
  queues behind the origin, fetches cross the slow budget, and the
  breaker converts further cold misses into fast fallbacks instead of
  held threads;
* forced low-fidelity distillation at reduced-fidelity level or
  above, using :class:`BrownoutJpegDistiller` so the cheaper encode
  actually costs less.

:class:`BrownoutJpegDistiller` exists because the stock latency model
prices distillation purely by input size: quality 5 and quality 25
would cost the same, and the reduced-fidelity rung would shed no load
at all.  Quantizing at very low quality with aggressive scaling skips
most of the encode work, so requests at or below the brownout quality
get a flat cost factor.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cache.latency import MEAN_HIT_S
from repro.core.config import (
    DEGRADE_FRESH_TTL_S,
    DEGRADE_STALE_TTL_S,
    ORIGIN_BREAKER_COOLDOWN_S,
    ORIGIN_BREAKER_SLOW_S,
)
from repro.core.frontend import Response
from repro.core.manager_stub import DispatchError
from repro.degrade.guards import CircuitBreaker
from repro.degrade.ladder import REDUCED_FIDELITY_PARAMS
from repro.degrade.staleness import FRESH, FreshnessCache
from repro.distillers.jpeg import DEFAULT_QUALITY, JpegDistiller
from repro.experiments._harness import BenchService
from repro.sim.cluster import Cluster
from repro.sim.network import Link
from repro.tacc.content import Content, zero_payload
from repro.tacc.worker import TACCRequest, WorkerError

#: origin model: per-fetch floor plus a serial pipe bounding the
#: cluster-wide fetch rate.  One reserve unit = one fetch.
ORIGIN_BASE_S = 0.25
ORIGIN_CAPACITY_RPS = 15.0


class BrownoutJpegDistiller(JpegDistiller):
    """JPEG distiller whose cost drops at brownout quality settings.

    At or below :attr:`BROWNOUT_QUALITY` the encoder quantizes almost
    everything away (and the forced setting also scales 4x), so both the
    capacity estimate and the sampled service time shrink by
    :attr:`BROWNOUT_COST_FACTOR`.  Same ``worker_type`` as the stock
    distiller — managers, stubs, and spawn plumbing see no difference.
    """

    BROWNOUT_QUALITY = 10
    BROWNOUT_COST_FACTOR = 0.55

    def _cost_factor(self, request: TACCRequest) -> float:
        quality = int(request.param("quality", DEFAULT_QUALITY))
        if quality <= self.BROWNOUT_QUALITY:
            return self.BROWNOUT_COST_FACTOR
        return 1.0

    def work_estimate(self, request: TACCRequest) -> float:
        return super().work_estimate(request) * self._cost_factor(request)

    def work_sample(self, rng, request: TACCRequest) -> float:
        return super().work_sample(rng, request) * \
            self._cost_factor(request)


class DegradableBenchService(BenchService):
    """Bench service with the degradation ladder on its request path.

    Works with or without a profile store (``store=None`` skips the
    profile read, like the classic harness).  The controller reference
    (:attr:`degradation`) is wired by
    :meth:`~repro.core.fabric.SNSFabric.start_degradation`; with no
    controller every ladder branch stays cold and the service is a
    plain cache-in-front bench service.
    """

    def __init__(self, cluster: Cluster, store: Any,
                 config: Any) -> None:
        super().__init__(cluster, store)
        self.config = config
        self.degradation: Optional[Any] = None
        self.results = FreshnessCache(DEGRADE_FRESH_TTL_S,
                                      DEGRADE_STALE_TTL_S)
        self.originals: dict = {}
        self.origin_link = Link(cluster.env, "origin",
                                bandwidth_bps=ORIGIN_CAPACITY_RPS,
                                latency_s=ORIGIN_BASE_S)
        if config.origin_breaker_failures is not None:
            self.origin_breaker: Optional[CircuitBreaker] = \
                CircuitBreaker(
                    lambda: cluster.env.now,
                    config.origin_breaker_failures,
                    ORIGIN_BREAKER_COOLDOWN_S, ORIGIN_BREAKER_SLOW_S)
        else:
            self.origin_breaker = None
        # counters
        self.stale_served = 0
        self.low_fidelity_served = 0
        self.breaker_fallbacks = 0
        self.origin_fetches = 0

    def brownout_counters(self) -> Dict[str, int]:
        counters = {"stale_served": self.stale_served,
                    "low_fidelity_served": self.low_fidelity_served,
                    "breaker_fallbacks": self.breaker_fallbacks,
                    "origin_fetches": self.origin_fetches}
        if self.origin_breaker is not None:
            counters["breaker_opens"] = self.origin_breaker.opens
            counters["breaker_short_circuits"] = \
                self.origin_breaker.short_circuits
        return counters

    def _distill(self, frontend, request, profile):
        env = self.cluster.env
        record = request.record
        trace = request.trace
        controller = self.degradation
        mark = env.now
        hit = self.results.get(record.url, env.now)
        if hit is not None:
            kind, result = hit
            if kind == FRESH:
                yield env.timeout(MEAN_HIT_S)
                if trace is not None:
                    trace.record("cache-hit", "cache", mark,
                                 annotations={"hit": True})
                return Response(status="ok", path="cache-hit",
                                content=result, size_bytes=result.size)
            if controller is not None and controller.serve_stale_active:
                self.stale_served += 1
                yield env.timeout(MEAN_HIT_S)
                if trace is not None:
                    trace.record("stale-hit", "cache", mark,
                                 annotations={"hit": True, "stale": True})
                return Response(
                    status="degraded", path="serve-stale",
                    content=result, size_bytes=result.size,
                    annotations={"degrade_level": 2,
                                 "degrade_mode": "serve-stale"})
        original = self.originals.get(record.url)
        mark = env.now
        if original is None:
            breaker = self.origin_breaker
            if breaker is not None and not breaker.allow():
                self.breaker_fallbacks += 1
                if trace is not None:
                    trace.record("origin-breaker", "service", mark,
                                 annotations={"short_circuit": True})
                return Response(
                    status="fallback", path="origin-breaker",
                    detail="origin circuit breaker open",
                    annotations={"degrade_mode": "origin-breaker"})
            self.origin_fetches += 1
            yield env.timeout(self.origin_link.reserve(1.0))
            if trace is not None:
                trace.record("origin-fetch", "network", mark)
            if breaker is not None:
                breaker.record(env.now - mark, ok=True)
            original = Content(record.url, record.mime,
                               zero_payload(record.size_bytes))
            self.originals[record.url] = original
        else:
            yield env.timeout(MEAN_HIT_S)
            if trace is not None:
                trace.record("cache-hit", "cache", mark,
                             annotations={"hit": True})
        reduced = controller is not None and controller.fidelity_reduced
        params = dict(REDUCED_FIDELITY_PARAMS) if reduced else {}
        work = TACCRequest(inputs=[original], params=params,
                           profile=profile, user_id=record.client_id)
        try:
            result = yield from frontend.stub.dispatch(
                request, work, self.worker_type)
        except (DispatchError, WorkerError):
            return Response(status="fallback", path="original",
                            content=original,
                            size_bytes=original.size)
        self.results.put(record.url, result, env.now)
        if reduced:
            self.low_fidelity_served += 1
            return Response(
                status="degraded", path="distilled-low-fidelity",
                content=result, size_bytes=result.size,
                annotations={"degrade_level": 1,
                             "degrade_mode": "reduced-fidelity"})
        return Response(status="ok", path="distilled", content=result,
                        size_bytes=result.size)
