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

Membership changes by event: :meth:`CacheSubsystem.add_node` and a
node's crash hook are the only writers of the ring, so an operation
places its key without first polling every node for liveness.  A key is
placed by its :func:`~repro.sim.hashing.stable_hash`, which the caller
computes once, next to the key, and hands to both the lookup and the
store of one request.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.latency import HarvestLatencyModel
from repro.cache.lru import LRUCache
from repro.cache.partition import ModHashPartitioner
from repro.core.component import Component
from repro.sim.cluster import Cluster
from repro.sim.hashing import PartitionError, stable_hash
from repro.sim.kernel import PENDING, TIMED_OUT, Event, TimedWait, Timeout
from repro.sim.node import Node
from repro.tacc.content import Content

#: Injecting (storing) into a cache node is cheaper than a full hit
#: lookup: no response payload to ship back.
STORE_SERVICE_S = 0.005
#: how long a front end waits on a cache node before treating the
#: lookup as a miss.
LOOKUP_TIMEOUT_S = 2.0


class CacheNode(Component):
    """One Harvest worker: an LRU store behind a serial request queue.

    :class:`CacheSubsystem` enqueues ``("lookup", key, reply)`` and
    ``("store", key, content)`` jobs; a crash drops the queue and the
    store and takes the node out of the subsystem's ring at once.
    """

    kind = "cache"

    def __init__(self, cluster: Cluster, node: Node, name: str,
                 capacity_bytes: int, cachesys: "CacheSubsystem") -> None:
        super().__init__(cluster, node, name)
        self.cachesys = cachesys
        self.store = LRUCache(capacity_bytes)
        self.queue = cluster.env.queue()
        self.lookups = 0
        self.stores = 0

    def _start_processes(self) -> None:
        self.spawn(self._service_loop())

    def _service_loop(self):
        env = self.env
        get = self.queue.get
        hit_time = self.cachesys.latency.hit_time
        while True:
            kind, key, value = yield get()
            if kind == "lookup":
                yield Timeout(env, hit_time())
                self.lookups += 1
                result = self.store.get(key)
                if self.alive and value._value is PENDING:
                    value.succeed(result)
            else:  # store
                yield Timeout(env, STORE_SERVICE_S)
                self.stores += 1
                self.store.put(key, value, value.size)

    def _on_crash(self) -> None:
        self.queue.clear()
        self.store.flush()
        # the re-hash on membership change (the manager stub's, in the
        # paper), at the moment the membership changes
        cachesys = self.cachesys
        del cachesys.nodes[self.name]
        cachesys.partitioner.remove_node(self.name)
        cachesys.live = list(cachesys.nodes.values())


class CacheSubsystem:
    """The virtual cache: hashing, membership, and the variant index."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.latency = HarvestLatencyModel(
            cluster.streams.stream("cache-latency"))
        self.partitioner = ModHashPartitioner()
        self.nodes: Dict[str, CacheNode] = {}
        #: the live nodes in the partitioner's order, so
        #: ``live[placement % len(live)]`` is the node
        #: ``partitioner.locate(key)`` names; written only by
        #: :meth:`add_node` and a node's crash hook, with ``nodes`` and
        #: the partitioner
        self.live: List[CacheNode] = []
        #: url -> {cache key: its placement} for the distilled variants
        #: of it (supports the "somewhat different version" approximate
        #: answer).
        self.variants: Dict[str, Dict[str, int]] = {}
        #: nodes ever added: default names count up and are never reused
        self._added = 0
        self.hits = 0
        self.misses = 0
        self.timeouts = 0

    # -- membership -----------------------------------------------------------

    def add_node(self, node: Node, capacity_bytes: int) -> CacheNode:
        serial = self._added + 1
        name = f"cache.{serial}"
        if name in self.nodes:
            raise PartitionError(f"cache node {name!r} already present")
        self._added = serial
        cache_node = CacheNode(self.cluster, node, name, capacity_bytes,
                               self)
        cache_node.start()
        self.nodes[name] = cache_node
        self.partitioner.add_node(name)
        self.live = list(self.nodes.values())
        return cache_node

    def node_for(self, key: str) -> Optional[CacheNode]:
        """The live node ``key`` is placed on (None if none is up)."""
        live = self.live
        return live[stable_hash(key) % len(live)] if live else None

    # -- operations -----------------------------------------------------------------

    def lookup(self, key: str, placement: int, trace=None):
        """Process generator: fetch ``key`` through its cache node.

        ``placement`` is ``stable_hash(key)``.  Pays per-request TCP
        setup plus the node's (queued) hit service time.  Returns the
        cached Content or None.  A node that crashes with the lookup
        queued is a miss, after a timeout.
        """
        env = self.cluster.env
        live = self.live
        if not live:
            self.misses += 1
            if trace is not None:
                trace.record("cache-lookup", "cache", env._now,
                             annotations={"hit": False, "no_node": True})
            return None
        cache_node = live[placement % len(live)]
        span = None
        if trace is not None:
            span = trace.child("cache-lookup", "cache",
                               component=cache_node.name)
        reply = Event(env)
        cache_node.queue.put_nowait(("lookup", key, reply))
        value = yield TimedWait(env, reply, LOOKUP_TIMEOUT_S)
        if value is TIMED_OUT:
            self.timeouts += 1
            self.misses += 1
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

    def store(self, key: str, placement: int, content: Content,
              variant_of: Optional[str] = None) -> None:
        """Inject content (original or post-transformation), a
        fire-and-forget store; ``placement`` is ``stable_hash(key)``."""
        live = self.live
        if not live:
            return
        live[placement % len(live)].queue.put_nowait(
            ("store", key, content))
        if variant_of is not None:
            self.variants.setdefault(variant_of, {})[key] = placement

    def any_variant(self, url: str, trace=None):
        """Process generator: any cached distilled variant of ``url``.

        The BASE approximate answer: "if the system is too heavily
        loaded to perform distillation, it can return a somewhat
        different version from the cache."
        """
        for key, placement in sorted(self.variants.get(url, {}).items()):
            value = yield from self.lookup(key, placement, trace)
            if value is not None:
                return value
        return None

    # -- stats ------------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
