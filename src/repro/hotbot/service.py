"""The HotBot cluster service: scatter-gather search over partitions.

Differences from TranSend, straight from Table 1, are visible in the
code shape: there is no manager and no lottery — the front end sends
every query to *all* workers in parallel and collates; workers are bound
to their nodes (each owns a disk partition); failure management is local
(RAID + fast restart, or the original Inktomi cross-mounting); and the
ACID side is a primary/backup parallel database good for ~400 requests/s
(Section 4.6: "HotBot's ACID database (parallel Informix server) ...
can serve about 400 requests per second").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.component import Component
from repro.domains import (at_least, check_args, check_fields, checked,
                           choice, count, positive)
from repro.hotbot.documents import Corpus
from repro.hotbot.index import (
    InvertedIndex,
    SearchHit,
    collate,
    hits_from_ranked,
)
from repro.hotbot.partition import PartitionMap
from repro.hotbot.query_cache import QueryCache, normalize_query
from repro.sim.cluster import Cluster
from repro.sim.kernel import PENDING, Event, Timeout, TimedWait
from repro.sim.network import Link
from repro.sim.node import Node, NodeDown

#: per-query worker cost per posting scanned, on top of query_fixed_s.
QUERY_PER_POSTING_S = 3e-6
#: cross-mounted access is slower (remote disk): a peer serving a
#: crashed partition pays this multiple of the local cost.
CROSS_MOUNT_PENALTY = 2.0
#: hits on one result page.
TOP_K = 10
#: Informix capacity (the bandwidth of its request pipe) and failover
#: time.
DB_CAPACITY_RPS = 400.0
DB_FAILOVER_S = 5.0


@dataclass
class HotBotConfig:
    """Deployment knobs for a HotBot installation."""

    n_workers: int = checked(8, count(1))
    n_docs: int = checked(2600, count(1))
    #: per-query worker cost: fixed + QUERY_PER_POSTING_S * scanned.
    query_fixed_s: float = checked(0.008, at_least(0))
    #: front end threads per node ("50-80 threads per node").
    frontend_threads: int = checked(64, count(1))
    #: scatter-gather deadline; missing partitions => partial results.
    #: Only tests set a second value, yet it stays a field: the
    #: fast-restart answer digests in tests/hotbot/test_answers.py are
    #: recorded at 0.5 s.
    gather_timeout_s: float = checked(2.0, at_least(0))
    #: "fast-restart" (RAID, partition offline until restart) or
    #: "cross-mount" (original Inktomi: a peer serves the partition).
    failure_mode: str = checked(
        "fast-restart", choice("fast-restart", "cross-mount"))

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class QueryResult:
    """What the front end returns to the user."""

    hits: List[SearchHit]
    coverage: float              # fraction of the database consulted
    partitions_answered: int
    partitions_total: int
    served_by_replica: int = 0
    #: served from the recent-searches cache (Table 1's "integrated
    #: cache of recent searches, for incremental delivery").
    from_cache: bool = False

    @property
    def partial(self) -> bool:
        return self.partitions_answered < self.partitions_total


class InformixModel:
    """The primary/backup ACID database: a serial server with failover.

    ACID data (user profiles, ad-revenue tracking) never degrades to
    approximate answers: during failover, requests *wait*.
    """

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._pipe = Link(cluster.env, "informix",
                          bandwidth_bps=DB_CAPACITY_RPS, latency_s=0.0)
        self.available = True
        self.unavailable_until = 0.0
        self.requests = 0
        self.failovers = 0

    def fail_primary(self) -> None:
        """Crash the primary; the backup takes over after DB_FAILOVER_S."""
        self.available = False
        self.unavailable_until = self.cluster.env.now + DB_FAILOVER_S
        self.failovers += 1

    def request(self):
        """Process generator: one profile read + ad-revenue write."""
        env = self.cluster.env
        while not self.available:
            wait = self.unavailable_until - env.now
            if wait <= 0:
                self.available = True
                break
            yield env.timeout(wait)
        self.requests += 1
        yield env.timeout(self._pipe.reserve(1.0))

    def utilization(self) -> float:
        return self._pipe.utilization()


class SearchWorker(Component):
    """One partition's query server, bound to its node."""

    kind = "search-worker"

    def __init__(self, cluster: Cluster, node: Node, name: str,
                 partition: int, index: InvertedIndex,
                 config: HotBotConfig,
                 replica_index: Optional[InvertedIndex] = None,
                 replica_partition: Optional[int] = None) -> None:
        super().__init__(cluster, node, name)
        self.partition = partition
        self.index = index
        self.config = config
        #: cross-mount mode: this worker can also serve a peer's
        #: partition from the shared disk, at a penalty.
        self.replica_index = replica_index
        self.replica_partition = replica_partition
        self.queue = cluster.env.queue()
        self.queries_served = 0
        self.replica_queries_served = 0

    def _start_processes(self) -> None:
        self.spawn(self._service_loop())

    def _service_loop(self):
        # runs per query and partition: bind what is fixed (DESIGN 5l)
        fixed_s = self.config.query_fixed_s
        get = self.queue.get
        compute = self.node.compute
        transfer_delay = self.cluster.network.transfer_delay
        while True:
            terms, k, reply, use_replica = yield get()
            index = self.replica_index if use_replica else self.index
            if index is None:
                continue
            # one search: `scanned` prices the wait, and the answer is
            # ready before it (an index never changes once built).  Doc
            # ids and scores, unsorted, are what a partition server
            # returns; the front end ranks and holds the urls
            scanned, scores = index.search(terms, k)
            work = fixed_s + QUERY_PER_POSTING_S * scanned
            if use_replica:
                work *= CROSS_MOUNT_PENALTY
            try:
                yield from compute(work)
            except NodeDown:
                return
            if use_replica:
                self.replica_queries_served += 1
            else:
                self.queries_served += 1
            self.spawn(self._deliver(
                reply, scores, transfer_delay(64 * len(scores))))

    def _deliver(self, reply, scores, delay):
        yield Timeout(self.env, delay)
        if self.alive and reply._value is PENDING:
            reply.succeed(scores)

    def _on_crash(self) -> None:
        self.queue.clear()


class HotBot:
    """A HotBot installation: corpus, partitions, workers, front end."""

    #: argument domains by method: each node speed is checked before
    #: anything is built, an offset when a query is submitted
    DOMAINS = {"__init__": {"node_speeds": positive()},
               "submit": {"offset": count(0)}}

    def __init__(self, config: Optional[HotBotConfig] = None,
                 seed: int = 1997,
                 node_speeds: Optional[List[float]] = None) -> None:
        self.config = config or HotBotConfig()
        speeds = ([1.0] * self.config.n_workers if node_speeds is None
                  else node_speeds)
        if len(speeds) != self.config.n_workers:
            raise ValueError("node_speeds length must match n_workers")
        for speed in speeds:
            check_args(self.DOMAINS["__init__"], node_speeds=speed)
        self.cluster = Cluster(seed=seed)
        self.corpus = Corpus(n_docs=self.config.n_docs, seed=seed)
        rng = self.cluster.streams.stream("partition")
        # "each worker handles a subset of the database proportional to
        # its CPU power"
        self.partition_map = PartitionMap(self.corpus, speeds, rng)
        self.workers: List[SearchWorker] = []
        indexes = [self.partition_map.build_index(partition)
                   for partition in range(self.config.n_workers)]
        for partition, speed in enumerate(speeds):
            node = self.cluster.add_node(f"hb{partition}", speed=speed)
            replica_index = None
            replica_partition = None
            if self.config.failure_mode == "cross-mount":
                # each node can also reach its successor's partition
                replica_partition = (partition + 1) % self.config.n_workers
                replica_index = indexes[replica_partition]
            worker = SearchWorker(
                self.cluster, node, f"search{partition}", partition,
                indexes[partition], self.config,
                replica_index=replica_index,
                replica_partition=replica_partition)
            worker.start()
            self.workers.append(worker)
        self.database = InformixModel(self.cluster)
        self.query_cache = QueryCache()
        #: doc id -> url (the corpus's list), for turning collated
        #: (score, doc id) pairs into the hits a user sees
        self._urls = self.corpus.urls
        self._threads = self.cluster.env.queue()
        for index in range(self.config.frontend_threads):
            self._threads.put_nowait(index)
        self.queries = 0
        self.partial_answers = 0
        self.cache_served = 0

    # -- recovery --------------------------------------------------------------------

    def restart(self, partition: int) -> None:
        """RAID keeps the disk: a crashed partition's node restarts and
        reloads its partition ("fast restart minimizes the impact of
        node failures"); a live worker is left alone."""
        old = self.workers[partition]
        if old.alive:
            return
        old.node.restart()
        replacement = SearchWorker(
            self.cluster, old.node, f"{old.name}.r", partition,
            self.partition_map.build_index(partition), self.config,
            replica_index=old.replica_index,
            replica_partition=old.replica_partition)
        replacement.start()
        self.workers[partition] = replacement

    # -- the query path ------------------------------------------------------------------

    def submit(self, terms: Sequence[str], user_id: str = "anon",
               offset: int = 0):
        """Client entry: returns an event completing with QueryResult.

        ``offset`` pages through results ("incremental delivery"):
        page 2 is ``offset=10`` (``TOP_K`` hits a page).  A bad query is
        refused here: inside the process it would abort the whole run.
        The checks are inline (every query would pay for a call here);
        the offset's domain is consulted only to word a refusal.
        """
        if isinstance(terms, str):
            raise TypeError("terms must be a sequence, not a bare string")
        terms = list(terms)  # checked here, read by the process: one pass
        for term in terms:
            if type(term) is not str:
                raise TypeError(f"terms must be strings, not {term!r}")
        if type(offset) is not int or offset < 0:
            self.DOMAINS["submit"]["offset"].check("offset", offset)
        env = self.cluster.env
        reply = Event(env)
        # HotBot has no FrontEnd component: the query path itself is
        # the ingress
        span = (None if env.tracer is None
                else env.tracer.ingress_span("query", "hotbot-fe"))
        env.process(self._handle(terms, user_id, offset, reply, span))
        return reply

    def _handle(self, terms, user_id, offset, reply, span=None):
        try:
            result = yield from self.query(terms, user_id, offset,
                                           trace=span)
        finally:
            if span is not None:
                span.finish()
        if span is not None:
            span.annotate(coverage=round(result.coverage, 4),
                          partial=result.partial,
                          from_cache=result.from_cache)
        if reply._value is PENDING:
            reply.succeed(result)

    #: service time for a recent-searches cache hit.
    CACHE_HIT_S = 0.003

    def query(self, terms: Sequence[str], user_id: str = "anon",
              offset: int = 0, trace=None):
        """Process generator: the full front-end query path."""
        env = self.cluster.env
        n_workers = self.config.n_workers
        # fold case here, once: the recent-searches cache and the
        # partitions must see the same spelling, or an answer found
        # under one is served from the cache for the other
        terms = [term.lower() for term in terms]
        mark = env.now
        thread = yield self._threads.get()
        if trace is not None:
            trace.record("thread-wait", "queueing", mark)
        try:
            # ACID side first: profile + ad tracking
            mark = env.now
            yield from self.database.request()
            if trace is not None:
                trace.record("db-request", "service", mark,
                             component="informix")
            # recent-searches cache: repeated queries and later result
            # pages never touch the partitions
            cache_key = normalize_query(terms)
            page = self.query_cache.get_page_by_key(
                cache_key, offset, TOP_K)
            if page is not None:
                mark = env.now
                yield Timeout(env, self.CACHE_HIT_S)
                if trace is not None:
                    trace.record("query-cache-hit", "cache", mark)
                self.queries += 1
                self.cache_served += 1
                return QueryResult(
                    hits=hits_from_ranked(page, self._urls),
                    coverage=1.0,
                    partitions_answered=n_workers,
                    partitions_total=n_workers,
                    from_cache=True,
                )
            # scatter to every reachable partition; fetch deep so the
            # cache can serve later pages incrementally
            fetch_k = max(TOP_K + offset, self.query_cache.depth)
            legs = []  # (partition, event, used_replica)
            missing = []  # partitions that will not be in the answer
            replica_legs = 0
            for partition in range(n_workers):
                leg = self._scatter_leg(partition, terms, fetch_k)
                if leg is None:
                    missing.append(partition)
                    continue
                if leg[2]:
                    replica_legs += 1
                if trace is not None:
                    # one span per scatter leg, closed by the reply
                    # event's own completion callback (observation
                    # only: appending a callback perturbs nothing)
                    leg_span = trace.child(
                        f"search:p{partition}", "service",
                        component=f"search{partition}")
                    leg_span.annotate(replica=leg[2])
                    leg[1].callbacks.append(
                        lambda _event, _span=leg_span: _span.finish())
                legs.append(leg)
            if not legs:
                self.queries += 1
                self.partial_answers += 1
                return QueryResult([], 0.0, 0, n_workers)
            yield TimedWait(
                env, env.all_of([event for _, event, _ in legs]),
                self.config.gather_timeout_s)
            # gather: one pass over the legs sorts them into answers
            # and partitions lost to the deadline
            answered = []
            for partition, event, _ in legs:
                if event.callbacks is None and event._ok:
                    answered.append(event._value)
                else:
                    missing.append(partition)
            # rank once: the legs' score maps collate into (-score,
            # doc id) pairs, deep: they are what is cached and paged
            # from; hits are made for the page served
            ranked = collate(answered, fetch_k)
            self.queries += 1
            result = QueryResult(
                hits=hits_from_ranked(ranked[offset: offset + TOP_K],
                                      self._urls),
                coverage=self.partition_map.coverage_without(missing),
                partitions_answered=len(answered),
                partitions_total=n_workers,
                served_by_replica=replica_legs,
            )
            if len(answered) < n_workers:
                self.partial_answers += 1
            else:
                # cache only complete answers so paging never silently
                # serves a degraded result set
                self.query_cache.store_by_key(cache_key, ranked)
            return result
        finally:
            self._threads.put_nowait(thread)

    def _scatter_leg(self, partition: int, terms: Sequence[str],
                     k: int):
        """One (partition, event, used_replica) leg, or None if the
        partition is unreachable."""
        env = self.cluster.env
        worker = self.workers[partition]
        if worker.alive:
            reply = Event(env)
            self.cluster.network.transfer_delay(128)  # scatter bytes
            worker.queue.put_nowait((terms, k, reply, False))
            return partition, reply, False
        if self.config.failure_mode == "cross-mount":
            # "there were always multiple nodes that could reach any
            # database partition"
            for peer in self.workers:
                if peer.alive and peer.replica_partition == partition:
                    reply = Event(env)
                    peer.queue.put_nowait((terms, k, reply, True))
                    return partition, reply, True
        return None

    def run(self, until=None):
        return self.cluster.run(until)

    def run_until(self, event):
        return self.cluster.env.run(until=event)
