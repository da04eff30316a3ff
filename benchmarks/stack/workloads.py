"""The four workloads: which deployment, which inputs, and why.

Each deployment is assembled through the program's public constructors
only (`TranSend`, `build_bench_fabric`, `HotBot`), booted, and left to
settle before any request is sent.  A `Deployment` is what the harness
needs from it: where to submit, how to grade an answer, and which
public counters to read afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.config import SNSConfig
from repro.experiments._harness import build_bench_fabric
from repro.hotbot.service import HotBot, HotBotConfig
from repro.transend.service import TranSend

from benchmarks.stack import loadgen
from benchmarks.stack.loadgen import Step

JPEG = "jpeg-distiller"

#: answers graded "full" count toward harvest; "degraded" answers are
#: the BASE approximations (fallbacks, partial results); "error" is a
#: refusal and counts as a failed request.
GRADE_BY_STATUS = {"ok": "full", "fallback": "degraded",
                   "degraded": "degraded", "error": "error"}

#: the paths `TranSendLogic` answers by on `transend_mix`, as reported
#: in ``transend.path_share.<path>`` (a fallback path would show as lost
#: harvest; no workload takes one).
TRANSEND_PATHS = ("passthrough", "cache-hit-distilled", "distilled")


@dataclass
class Deployment:
    cluster: Any
    #: client entry: one input record -> reply event
    submit: Callable[[Any], Any]
    #: reply value -> "full" | "degraded" | "error" (KeyError if the
    #: program answers with a status this benchmark does not know)
    grade: Callable[[Any], str]
    #: raw public counters of the deployment, read after the replay
    counters: Callable[[], Dict[str, float]]
    #: called with the simulated time the trace starts at and the
    #: (scaled) steps, to plant mid-run faults; None when there are none
    arm: Optional[Callable[[float, Sequence[Step]], None]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: offered load at scale 1, open loop
    steps: Sequence[Step]
    #: a step "meets the limit" when the p99 of its own requests stays
    #: under this, at most 1% of them fail, and it ends with no more
    #: requests in flight than rate x limit (Little's law: more than
    #: that means a backlog is building)
    p99_limit_ms: float
    #: how long a client waits before it gives up on a request
    client_timeout_s: float
    #: (deployment seed, scale) -> a booted, settled deployment
    build: Callable[[int, float], Deployment]
    inputs: Callable[[int, Sequence[Step]], List[Any]]


def _grade_response(response: Any) -> str:
    return GRADE_BY_STATUS[response.status]


def _network_counters(cluster: Any) -> Dict[str, float]:
    san = cluster.network.san
    return {
        "net.messages": san.messages_sent,
        "net.bytes": san.bytes_sent,
        "net.busy_s": san.bytes_sent / san.bandwidth_bps,
    }


def _fabric_counters(fabric: Any) -> Dict[str, float]:
    stubs = [frontend.stub for frontend in fabric.frontends.values()]
    workers = list(fabric.workers.values())
    worker_nodes = {id(stub.node): stub.node for stub in workers}
    manager = fabric.manager
    counters = {
        "stub.dispatches": sum(s.dispatches for s in stubs),
        "stub.retries": sum(s.retries for s in stubs),
        "stub.timeouts": sum(s.timeouts for s in stubs),
        "worker.busy_s": sum(n.busy_time for n in worker_nodes.values()),
        "worker.nodes": len(worker_nodes),
        "manager.spawns": manager.spawns,
        "manager.beacons": manager.beacons_sent,
        "manager.failures_detected": manager.worker_failures_detected,
    }
    counters.update(_network_counters(fabric.cluster))
    return counters


# -- transend_mix -------------------------------------------------------------

#: total cache partition capacity at scale 1: about half of the bytes
#: a unit touches (~67 MB of distinct documents), so the LRU evicts.
#: It shrinks with the scale, as the bytes a shorter trace touches do.
TRANSEND_CACHE_BYTES = 32 * 1024 * 1024


def build_transend(seed: int, scale: float) -> Deployment:
    service = TranSend(
        n_nodes=12, n_cache_nodes=4,
        cache_capacity_bytes=int(TRANSEND_CACHE_BYTES * scale) // 4,
        seed=seed, config=SNSConfig())
    service.start(n_frontends=2, initial_workers={
        "gif-distiller": 2, JPEG: 2, "html-munger": 2})

    def counters() -> Dict[str, float]:
        cache = service.cachesys
        nodes = list(cache.nodes.values())
        merged = _fabric_counters(service.fabric)
        merged.update({
            "cache.hits": cache.hits,
            "cache.misses": cache.misses,
            "cache.stores": sum(node.stores for node in nodes),
            "cache.evictions": sum(n.store.evictions for n in nodes),
            "origin.fetches": service.origin.fetches,
        })
        for path, count in service.logic.paths.items():
            merged[f"path.{path}"] = count
        return merged

    return Deployment(service.cluster, service.submit, _grade_response,
                      counters)


# -- jpeg_dispatch and overload_ramp -----------------------------------------

#: One configuration for the fast path and the slow path, so the two
#: workloads differ in load, not in tuning.  The retry budget and the
#: bounded worker queues are what keep overload a controlled degradation
#: (fallbacks) instead of a retry storm that never ends.
DISPATCH_SETTINGS: Dict[str, Any] = dict(
    frontend_threads=400, frontend_connection_overhead_s=0.001,
    dispatch_timeout_s=2.0, dispatch_attempts=3,
    dispatch_deadline_s=6.0, shed_expired_requests=True,
    retry_budget_ratio=0.2, worker_queue_capacity=40,
    spawn_damping_s=5.0, reap_after_s=20.0)


def _fabric_deployment(fabric: Any, arm: Any = None) -> Deployment:
    fabric.boot(n_frontends=2, initial_workers={JPEG: 8})
    fabric.cluster.run(until=2.0)
    return Deployment(fabric.cluster, fabric.submit, _grade_response,
                      lambda: _fabric_counters(fabric), arm)


def build_jpeg_dispatch(seed: int, _scale: float) -> Deployment:
    # spawning off: a fixed pool, as in the paper's Table 2 runs
    fabric = build_bench_fabric(
        n_nodes=12, seed=seed,
        config=SNSConfig(**DISPATCH_SETTINGS, spawn_threshold=1e9))
    return _fabric_deployment(fabric)


#: overload_ramp at scale 1: 0.4, 0.8, 1.6, 2.0 x the fixed pool's
#: 200 rps capacity and back down.  Twelve distillers (8 + 4 overflow
#: nodes) serve 300 rps, so the two top steps overload any pool the
#: manager can grow and the 160 rps step never does.
RAMP_STEPS: Sequence[Step] = tuple(
    (rate, 20.0) for rate in (80.0, 160.0, 320.0, 400.0, 320.0,
                              160.0, 80.0))


def build_overload_ramp(seed: int, _scale: float) -> Deployment:
    # 11 dedicated nodes are all taken by manager, front ends and the
    # 8 seeded distillers: every spawn lands on an overflow node
    fabric = build_bench_fabric(n_nodes=11, n_overflow=4, seed=seed,
                                config=SNSConfig(**DISPATCH_SETTINGS))
    env = fabric.cluster.env

    def arm(trace_start: float, steps: Sequence[Step]) -> None:
        # one distiller dies half way through the top step
        top = max(range(len(steps)), key=lambda i: steps[i][0])
        kill_after_s = (sum(duration for _, duration in steps[:top])
                        + steps[top][1] / 2.0)
        victim = fabric.workers[sorted(fabric.workers)[0]]
        env.schedule_call(trace_start - env.now + kill_after_s,
                          lambda _event: victim.kill())

    return _fabric_deployment(fabric, arm)


# -- hotbot_scatter -----------------------------------------------------------

#: `Corpus`'s vocabulary, which the query generator draws terms from.
HOTBOT_VOCABULARY = 2000


def build_hotbot(seed: int, _scale: float) -> Deployment:
    # query_fixed_s below the default so one partition node sustains
    # the 200 qps stream at ~50% utilisation
    service = HotBot(config=HotBotConfig(
        n_workers=16, n_docs=4000, frontend_threads=128,
        query_fixed_s=0.003), seed=seed)
    if service.corpus.vocabulary_size != HOTBOT_VOCABULARY:
        raise RuntimeError("HotBot's corpus vocabulary changed; the "
                           "query generator must draw from the same one")

    def grade(result: Any) -> str:
        return "degraded" if result.partial else "full"

    def counters() -> Dict[str, float]:
        merged = {
            "hotbot.queries": service.queries,
            "hotbot.legs": sum(w.queries_served + w.replica_queries_served
                               for w in service.workers),
            "hotbot.cache_served": service.cache_served,
        }
        merged.update(_network_counters(service.cluster))
        return merged

    return Deployment(
        service.cluster,
        lambda query: service.submit(query.terms, query.user_id),
        grade, counters)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "transend_mix",
        "the path every experiment runs: cache hits, misses with origin "
        "fetch, store and LRU eviction, pass-through and distillation; "
        "dispatch serves only the ~25% that distill",
        steps=((40.0, 800.0),), p99_limit_ms=10000.0,
        client_timeout_s=150.0, build=build_transend,
        inputs=loadgen.browsing_mix),
    Workload(
        "jpeg_dispatch",
        "the paper's Table 2 shape: every request crosses manager stub, "
        "SAN, worker stub and distiller at 80% utilisation; cache and "
        "service logic do nothing, so their changes must not move it",
        steps=((160.0, 190.0),), p99_limit_ms=1000.0,
        client_timeout_s=10.0, build=build_jpeg_dispatch,
        inputs=loadgen.jpeg_steps),
    Workload(
        "overload_ramp",
        "the slow path of the same layers: load steps to 2x capacity and "
        "back with a distiller killed at the top, so full queues, "
        "timeouts, retries, backoff, fallbacks, spawns and failure "
        "detection run",
        steps=RAMP_STEPS, p99_limit_ms=1000.0,
        client_timeout_s=10.0, build=build_overload_ramp,
        inputs=loadgen.jpeg_steps),
    Workload(
        "hotbot_scatter",
        "fan-out: each query scatters to 16 partitions and gathers "
        "under a deadline, the slowest leg sets latency, and none of "
        "the SNS dispatch or cache code runs",
        steps=((200.0, 20.0),), p99_limit_ms=1000.0,
        client_timeout_s=10.0, build=build_hotbot,
        inputs=lambda seed, steps: loadgen.flat_queries(
            seed, steps, HOTBOT_VOCABULARY)),
)}
