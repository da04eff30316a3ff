"""TranSend's cache subsystem: Harvest nodes behind a virtual cache.

Reproduces the three Section 3.1.5 engineering moves:

* several cache nodes are managed "as a single virtual cache, hashing
  the key space across the separate caches and automatically re-hashing
  when cache nodes are added or removed" — routing lives in
  :class:`CacheSubsystem`, storage in per-node LRU caches;
* data can be **injected** (post-transformation content is cached too);
* every request pays a fresh TCP connection — 15 of the 27 ms average
  hit time — because "we did not repair this deficiency".

Cache nodes are SNS components: they queue requests (a node saturates
near 37 requests/second, per Section 4.4), can be crashed, and losing
one loses its partition — which is fine, because "caching in TranSend is
only an optimization.  All cached data can be thrown away at the cost of
performance."
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.cache.latency import HarvestLatencyModel
from repro.cache.lru import LRUCache
from repro.cache.partition import ModHashPartitioner
from repro.core.component import Component
from repro.sim.cluster import Cluster
from repro.sim.hashing import PartitionError
from repro.sim.kernel import PENDING, TIMED_OUT, TimedWait
from repro.sim.node import Node
from repro.tacc.content import Content

#: Injecting (storing) into a cache node is cheaper than a full hit
#: lookup: no response payload to ship back.
STORE_SERVICE_S = 0.005


class CacheNode(Component):
    """One Harvest worker: an LRU store behind a serial request queue."""

    kind = "cache"

    def __init__(self, cluster: Cluster, node: Node, name: str,
                 capacity_bytes: int,
                 latency: HarvestLatencyModel) -> None:
        super().__init__(cluster, node, name)
        self.store = LRUCache(capacity_bytes)
        self.latency = latency
        self.queue = cluster.env.queue()
        self.lookups = 0
        self.stores = 0

    def _start_processes(self) -> None:
        self.spawn(self._service_loop())

    def _service_loop(self):
        env = self.env
        while True:
            job = yield self.queue.get()
            kind, key, value, reply = job
            if kind == "lookup":
                yield env.timeout(self.latency.hit_time())
                self.lookups += 1
                result = self.store.get(key)
                if self.alive and reply._value is PENDING:
                    reply.succeed(result)
            else:  # store
                yield env.timeout(STORE_SERVICE_S)
                self.stores += 1
                content, size = value
                self.store.put(key, content, size)
                if reply is not None and reply._value is PENDING:
                    reply.succeed(True)

    def lookup(self, key: str):
        """Event completing with the cached value or None."""
        reply = self.env.event()
        if not self.alive:
            return reply  # never fires; caller's timeout handles it
        self.queue.put_nowait(("lookup", key, None, reply))
        return reply

    def inject(self, key: str, content: Any, size_bytes: int) -> None:
        """Fire-and-forget store (the distiller-injection path)."""
        if not self.alive:
            return
        self.queue.put_nowait(("store", key, (content, size_bytes), None))

    def _on_crash(self) -> None:
        self.queue.clear()
        self.store.flush()


class CacheSubsystem:
    """The virtual cache: hashing, membership, and the variant index."""

    def __init__(self, cluster: Cluster, lookup_timeout_s: float = 2.0
                 ) -> None:
        self.cluster = cluster
        self.lookup_timeout_s = lookup_timeout_s
        self.latency = HarvestLatencyModel(
            cluster.streams.stream("cache-latency"))
        self.partitioner = ModHashPartitioner()
        self.nodes: Dict[str, CacheNode] = {}
        #: url -> set of cache keys holding distilled variants of it
        #: (supports the "somewhat different version" approximate answer).
        self.variants: Dict[str, Set[str]] = {}
        self.hits = 0
        self.misses = 0
        self.timeouts = 0

    # -- membership -----------------------------------------------------------

    def add_node(self, node: Node, capacity_bytes: int,
                 name: Optional[str] = None) -> CacheNode:
        name = name or f"cache.{len(self.nodes) + 1}"
        cache_node = CacheNode(self.cluster, node, name, capacity_bytes,
                               self.latency)
        cache_node.start()
        self.nodes[name] = cache_node
        self.partitioner.add_node(name)
        return cache_node

    def node_for(self, key: str) -> Optional[CacheNode]:
        try:
            name = self.partitioner.locate(key)
        except PartitionError:
            return None
        return self.nodes.get(name)

    def _note_crashes(self) -> None:
        """Drop crashed nodes from the hash ring (the manager-stub
        re-hash on membership change)."""
        for name, cache_node in list(self.nodes.items()):
            if not cache_node.alive:
                self.partitioner.remove_node(name)
                del self.nodes[name]

    # -- operations -----------------------------------------------------------------

    def lookup(self, key: str, trace=None):
        """Process generator: fetch ``key`` through its cache node.

        Pays per-request TCP setup plus the node's (queued) hit service
        time.  Returns the cached Content or None.  A crashed node is a
        miss (after a timeout) and gets dropped from the ring.
        """
        env = self.cluster.env
        self._note_crashes()
        cache_node = self.node_for(key)
        if cache_node is None:
            self.misses += 1
            if trace is not None:
                trace.record("cache-lookup", "cache", env._now,
                             hit=False, no_node=True)
            return None
        span = None
        if trace is not None:
            span = trace.child("cache-lookup", "cache",
                               component=cache_node.name)
        reply = cache_node.lookup(key)
        value = yield TimedWait(env, reply, self.lookup_timeout_s)
        if value is TIMED_OUT:
            self.timeouts += 1
            self.misses += 1
            self._note_crashes()
            if span is not None:
                span.annotate(hit=False, timeout=True).finish()
            return None
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        if span is not None:
            span.annotate(hit=value is not None).finish()
        return value

    def store(self, key: str, content: Content,
              variant_of: Optional[str] = None) -> None:
        """Inject content (original or post-transformation)."""
        self._note_crashes()
        cache_node = self.node_for(key)
        if cache_node is None:
            return
        cache_node.inject(key, content, content.size)
        if variant_of is not None:
            self.variants.setdefault(variant_of, set()).add(key)

    def any_variant(self, url: str, trace=None):
        """Process generator: any cached distilled variant of ``url``.

        The BASE approximate answer: "if the system is too heavily
        loaded to perform distillation, it can return a somewhat
        different version from the cache."
        """
        for key in sorted(self.variants.get(url, ())):
            value = yield from self.lookup(key, trace=trace)
            if value is not None:
                return value
        return None

    # -- stats ------------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
