"""TranSend assembled: service logic + deployment.

:class:`TranSendLogic` is the Service-layer code — the part a service
author writes (Section 2.2.1: the front end "encapsulates
service-specific worker dispatch logic, accesses the profile database to
pass the appropriate parameters to the workers, notifies the end user in
a service-specific way when one or more workers fails unrecoverably").

The request path follows Section 3.1.1 exactly: fetch from the caching
subsystem (or the Internet on a miss), pair the request with the user's
customization preferences, send it through a distiller, return the
result — or, exploiting BASE (Section 3.1.8), return an approximate
answer: a differently-distilled cached variant, else the original.

:class:`TranSend` is the one-call deployment: cluster + SAN + cache
nodes + profile DB + distiller registry + SNS fabric.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.config import (
    DISTILLATION_THRESHOLD_BYTES,
    ORIGIN_BREAKER_COOLDOWN_S,
    ORIGIN_BREAKER_SLOW_S,
    SNSConfig,
)
from repro.core.fabric import SNSFabric
from repro.core.frontend import FrontEnd, Response
from repro.core.manager_stub import DispatchError
from repro.core.messages import Request
from repro.degrade.guards import OriginUnavailable
from repro.distillers.gif import GifDistiller
from repro.distillers.html import HtmlMunger
from repro.distillers.jpeg import JpegDistiller
from repro.sim.cluster import Cluster
from repro.sim.hashing import stable_hash
from repro.sim.kernel import Interrupt, Timeout
from repro.sim.network import MBPS
from repro.tacc.content import MIME_GIF, MIME_HTML, MIME_JPEG, Content
from repro.tacc.customization import (
    ProfileStore,
    WriteThroughCache,
    open_profile_store,
)
from repro.tacc.registry import WorkerRegistry
from repro.tacc.worker import TACCRequest, WorkerError
from repro.transend.cachesys import CacheSubsystem
from repro.transend.origin import OriginServer
from repro.transend.profiles import (
    DEFAULT_PREFERENCES,
    distilled_cache_key,
    original_cache_key,
    preference_validator,
)
from repro.workload.trace import TraceRecord

#: latency of a profile-store read that misses the front end's
#: write-through cache (gdbm lookup).
PROFILE_READ_MISS_S = 0.005

#: which distiller serves which MIME type.
DISTILLER_FOR_MIME = {
    MIME_GIF: GifDistiller.worker_type,
    MIME_JPEG: JpegDistiller.worker_type,
    MIME_HTML: HtmlMunger.worker_type,
}


def transend_registry() -> WorkerRegistry:
    registry = WorkerRegistry()
    registry.register_class(GifDistiller)
    registry.register_class(JpegDistiller)
    registry.register_class(HtmlMunger)
    return registry


class TranSendLogic:
    """The Service-layer request handler running inside each front end."""

    def __init__(self, cluster: Cluster, config: SNSConfig,
                 cachesys: CacheSubsystem, origin: OriginServer,
                 profile_store: ProfileStore,
                 adaptation: Optional[Any] = None) -> None:
        self.cluster = cluster
        self.config = config
        self.cachesys = cachesys
        self.origin = origin
        self.profile_store = profile_store
        #: optional AdaptationPolicy (Section 5.4): tunes distillation
        #: parameters to each client's estimated bandwidth.
        self.adaptation = adaptation
        #: brownout controller (repro.degrade), wired by the fabric;
        #: None = no degradation ladder on this service.
        self.degradation: Optional[Any] = None
        #: origin circuit breaker (repro.degrade.guards), config-gated.
        self.origin_breaker: Optional[Any] = None
        if config.origin_breaker_failures is not None:
            from repro.degrade.guards import CircuitBreaker
            self.origin_breaker = CircuitBreaker(
                lambda: cluster.env.now,
                config.origin_breaker_failures,
                ORIGIN_BREAKER_COOLDOWN_S, ORIGIN_BREAKER_SLOW_S)
        self._profile_caches: Dict[str, WriteThroughCache] = {}
        #: response-path counters (the Section 3.1.8 BASE taxonomy).
        self.paths: Dict[str, int] = {}

    # -- profile plumbing ------------------------------------------------------

    def profile_cache_for(self, frontend_name: str) -> WriteThroughCache:
        if frontend_name not in self._profile_caches:
            self._profile_caches[frontend_name] = WriteThroughCache(
                self.profile_store)
        return self._profile_caches[frontend_name]

    def set_preference(self, frontend_name: str, user_id: str, key: str,
                       value: Any) -> None:
        """The preference UI path: write-through at the front end.

        Explicitly-set distillation knobs are flagged so bandwidth
        adaptation never overrides a deliberate user choice.
        """
        cache = self.profile_cache_for(frontend_name)
        cache.set(user_id, key, value)
        if key in ("quality", "scale"):
            cache.set(user_id, f"_user_set_{key}", True)

    # -- the request path ---------------------------------------------------------

    def handle(self, frontend: FrontEnd, request: Request):
        record = request.record
        # span context for this request, if the front end sampled it
        trace = request.trace
        profile_cache = self.profile_cache_for(frontend.name)
        cached_profile = record.client_id in profile_cache._cache
        preferences = profile_cache.overlay(record.client_id,
                                            DEFAULT_PREFERENCES)
        if not cached_profile:
            env = self.cluster.env
            mark = env._now
            yield Timeout(env, PROFILE_READ_MISS_S)
            if trace is not None:
                trace.record("profile-read", "service", mark,
                             component="profile-db")
        if self.adaptation is not None:
            preferences = self.adaptation.adapt(record.client_id,
                                                preferences)
        degraded_fidelity = (self.degradation is not None
                             and self.degradation.fidelity_reduced)
        if degraded_fidelity:
            # reduced-fidelity brownout: the lowest adaptation tier,
            # forced cluster-wide — unlike per-client adaptation this
            # overrides even explicit user choices, because the knob
            # exists to shed distiller load, not to please one client
            tier = self.degradation.forced_tier
            preferences = dict(preferences)
            preferences["quality"] = tier.quality
            preferences["scale"] = tier.scale
            preferences["_degrade_forced_tier"] = tier.label

        # "data for which no distiller exists is passed unmodified to
        # the user"; "data under 1KB is transferred unmodified"
        worker_type = DISTILLER_FOR_MIME.get(record.mime)
        if (worker_type is None
                or record.size_bytes < DISTILLATION_THRESHOLD_BYTES
                or not preferences.get(
                    "munge_html" if record.mime == MIME_HTML
                    else "distill_images", True)):
            try:
                original = yield from self._get_original(record, trace)
            except OriginUnavailable:
                return (yield from self._breaker_fallback(record, trace))
            return self._respond("passthrough", "ok", original)

        # 1. is the exact distilled representation already cached?
        key = distilled_cache_key(record.url, preferences)
        placement = stable_hash(key)
        cached = yield from self.cachesys.lookup(key, placement, trace)
        if cached is not None:
            return self._respond("cache-hit-distilled", "ok", cached)

        # 1b. serve-stale brownout: any cached variant of this URL —
        # whatever its parameters or age — beats spending a distiller
        # slot while the ladder says the cluster is saturated
        if self.degradation is not None \
                and self.degradation.serve_stale_active:
            variant = yield from self.cachesys.any_variant(
                record.url, trace=trace)
            if variant is not None:
                return self._respond(
                    "serve-stale", "degraded", variant,
                    detail="stale variant under brownout",
                    annotations={"degrade_level": 2,
                                 "degrade_mode": "serve-stale"})

        # 2. fetch the original (cache, else Internet)
        try:
            original = yield from self._get_original(record, trace)
        except OriginUnavailable:
            return (yield from self._breaker_fallback(record, trace))

        # 3. distill
        work = TACCRequest(
            inputs=[original],
            params={},
            profile=preferences,
            user_id=record.client_id,
        )
        try:
            result = yield from frontend.stub.dispatch(
                request, work, worker_type)
        except WorkerError:
            # pathological input: bypass the distiller, note the fault
            return self._respond("fallback-original", "fallback",
                                 original, detail="worker error")
        except DispatchError:
            # overload or total distiller loss: approximate answers
            variant = yield from self.cachesys.any_variant(
                record.url, trace=trace)
            if variant is not None:
                return self._respond("fallback-variant", "fallback",
                                     variant, detail="stale variant")
            return self._respond("fallback-original", "fallback",
                                 original, detail="no distiller")

        self.cachesys.store(key, placement, result, variant_of=record.url)
        if degraded_fidelity:
            return self._respond(
                "distilled-low-fidelity", "degraded", result,
                annotations={"degrade_level": 1,
                             "degrade_mode": "reduced-fidelity"})
        return self._respond("distilled", "ok", result)

    def _get_original(self, record: TraceRecord, trace=None):
        key = original_cache_key(record.url)
        placement = stable_hash(key)
        cached = yield from self.cachesys.lookup(key, placement, trace)
        if cached is not None:
            return cached
        breaker = self.origin_breaker
        if breaker is not None and not breaker.allow():
            raise OriginUnavailable(record.url)
        env = self.cluster.env
        mark = env._now
        try:
            content = yield from self.origin.fetch(record, trace=trace)
        except Interrupt:
            raise  # the front end was killed: not an origin failure
        except Exception:
            if breaker is not None:
                breaker.record(env._now - mark, ok=False)
            raise
        if breaker is not None:
            breaker.record(env._now - mark, ok=True)
        self.cachesys.store(key, placement, content)
        return content

    def _breaker_fallback(self, record: TraceRecord, trace=None):
        """Origin breaker open: a cached variant if one exists, else an
        error — fast either way, which is the breaker's whole point."""
        variant = yield from self.cachesys.any_variant(record.url,
                                                       trace=trace)
        if variant is not None:
            return self._respond("fallback-variant", "fallback", variant,
                                 detail="origin breaker open")
        self.paths["origin-breaker"] = \
            self.paths.get("origin-breaker", 0) + 1
        return Response(status="error", path="origin-breaker",
                        detail="origin circuit breaker open")

    def _respond(self, path: str, status: str, content: Content,
                 detail: str = "",
                 annotations: Optional[Dict[str, Any]] = None
                 ) -> Response:
        self.paths[path] = self.paths.get(path, 0) + 1
        return Response(status=status, path=path, content=content,
                        size_bytes=content.size, detail=detail,
                        annotations=annotations or {})


class TranSend:
    """One-call TranSend deployment on a simulated cluster."""

    def __init__(
        self,
        n_nodes: int = 10,
        n_overflow: int = 0,
        n_cache_nodes: int = 4,
        cache_capacity_bytes: int = 256 * 1024 * 1024,
        seed: int = 1997,
        config: Optional[SNSConfig] = None,
        real_content: bool = False,
        san_bandwidth_bps: float = 100 * MBPS,
        internet_bandwidth_bps: float = 10 * MBPS,
        profile_log_path: Optional[str] = None,
        profile_backend: str = "single",
        adaptive: bool = False,
    ) -> None:
        self.config = (config or SNSConfig()).validate()
        self.cluster = Cluster(seed=seed,
                               san_bandwidth_bps=san_bandwidth_bps)
        self.cluster.add_nodes(n_nodes)
        if n_overflow:
            self.cluster.add_nodes(n_overflow, prefix="ovf",
                                   overflow=True)
        internet = self.cluster.add_access_link(
            "internet", internet_bandwidth_bps)
        self.origin = OriginServer(self.cluster, internet,
                                   real_content=real_content)
        self.cachesys = CacheSubsystem(self.cluster)
        for index in range(n_cache_nodes):
            node = self.cluster.add_node(f"cachenode{index}")
            self.cachesys.add_node(node, cache_capacity_bytes)
        self.profile_store, self.profile_bricks = open_profile_store(
            self.cluster, profile_backend, log_path=profile_log_path,
            validator=preference_validator)
        self.registry = transend_registry()
        self.adaptation = None
        if adaptive:
            from repro.transend.adaptation import AdaptationPolicy
            self.adaptation = AdaptationPolicy()
        self.logic = TranSendLogic(self.cluster, self.config,
                                   self.cachesys, self.origin,
                                   self.profile_store,
                                   adaptation=self.adaptation)
        self.fabric = SNSFabric(self.cluster, self.registry, self.config,
                                self.logic, execute_real=real_content)
        self.fabric.profile_store = self.profile_store
        self.fabric.profile_bricks = self.profile_bricks

    # -- life cycle -----------------------------------------------------------------

    def start(self, n_frontends: int = 1,
              initial_workers: Optional[Dict[str, int]] = None,
              warmup_s: float = 2.0) -> "TranSend":
        """Boot manager, monitor, front ends (workers spawn on demand
        unless seeded here) and let registrations settle."""
        self.fabric.boot(n_frontends=n_frontends,
                         initial_workers=initial_workers or {})
        if warmup_s > 0:
            self.cluster.run(until=self.cluster.env.now + warmup_s)
        return self

    def submit(self, record: TraceRecord):
        return self.fabric.submit(record)

    def run(self, until: Any = None):
        """Run to a time, until an event fires, or to exhaustion."""
        return self.cluster.run(until)

    # -- the preference UI --------------------------------------------------------------

    def set_preference(self, user_id: str, key: str, value: Any) -> None:
        frontends = self.fabric.alive_frontends()
        frontend_name = frontends[0].name if frontends else "offline"
        self.logic.set_preference(frontend_name, user_id, key, value)

    # -- reporting ------------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "paths": dict(self.logic.paths),
            "cache_hit_rate": self.cachesys.hit_rate,
            "origin_fetches": self.origin.fetches,
            "workers": {
                stub.name: stub.served
                for stub in self.fabric.alive_workers()
            },
            "manager_spawns": (self.fabric.manager.spawns
                               if self.fabric.manager else 0),
            "frontends": {
                frontend.name: frontend.responses_sent
                for frontend in self.fabric.alive_frontends()
            },
        }
