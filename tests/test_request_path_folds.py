"""Every fold of the request path's call budget (DESIGN.md 5l), tied to
what it replaced — to the bit.

The pass that met the budget moved values to their one writer and
folded forwarding layers into their callers; it may not change a
`float`.  The code each fold replaced lives on here as the reference.
"""

import copy
import dataclasses
from collections import deque
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balance.policies import LotteryPolicy
from repro.cache.latency import HarvestLatencyModel
from repro.cache.partition import ModHashPartitioner
from repro.core.config import SNSConfig
from repro.core.manager_stub import AdvertState
from repro.core.messages import WorkerAdvert
from repro.experiments._harness import build_bench_fabric
from repro.obs import install_tracer
from repro.sim.cluster import Cluster
from repro.sim.hashing import PartitionError, stable_hash
from repro.sim.kernel import Environment
from repro.sim.network import Link, UtilizationMeter
from repro.sim.rng import RandomStreams
from repro.tacc.content import Content, ZeroPayload
from repro.tacc.customization import ProfileStore, WriteThroughCache
from repro.transend.cachesys import CacheSubsystem
from repro.transend.profiles import DEFAULT_PREFERENCES
from repro.transend.service import TranSend

from tests.core.conftest import make_record

JPEG = "jpeg-distiller"


# -- (a) the lottery's weights and AdvertState.slope ---------------------------

class ParentAdvertState:
    """`AdvertState` as it was: the slope re-divided on every read."""

    def __init__(self, advert, now):
        self.advert = advert
        self.queue_avg = advert.queue_avg
        self.received_at = now
        self.prev_queue_avg = None
        self.prev_received_at = None
        self.sent_since_report = 0

    def refresh(self, advert, now):
        if advert.last_report_at != self.advert.last_report_at:
            self.prev_queue_avg = self.queue_avg
            self.prev_received_at = self.received_at
            self.queue_avg = advert.queue_avg
            self.received_at = now
            self.sent_since_report = 0
        self.advert = advert

    def effective_queue(self, now, estimate_deltas):
        value = self.queue_avg
        if estimate_deltas:
            if (self.prev_received_at is not None
                    and self.received_at > self.prev_received_at):
                slope = ((self.queue_avg - self.prev_queue_avg)
                         / (self.received_at - self.prev_received_at))
                value += slope * (now - self.received_at)
            value += self.sent_since_report
        return max(0.0, value)


def advert(name, queue_avg, report_at):
    return WorkerAdvert(worker_name=name, worker_type="w", node_name="n",
                        stub=None, queue_avg=queue_avg,
                        last_report_at=report_at)


class CapturingRng:
    def weighted_choice(self, items, weights):
        self.weights = list(weights)
        return items[0]


#: one beacon as a worker's history sees it: seconds since the previous
#: one (0.0: the same instant), the advertised queue (negative and -0.0
#: included, so every clamp runs), whether it carries a new load report
#: or re-broadcasts the last, and what this front end sent afterwards
BEACON = st.tuples(
    st.sampled_from([0.0, 1e-9, 0.25, 0.5, 1.0, 7.5]),
    st.one_of(st.sampled_from([-0.0, 0.0, 1.0]),
              st.floats(min_value=-50.0, max_value=5e4)),
    st.booleans(),
    st.integers(min_value=0, max_value=40))
HISTORY = st.lists(BEACON, min_size=0, max_size=6)


def replay(history, name="w0"):
    """The same beacons into the real state and the parent's."""
    first = advert(name, 3.0, 0.0)
    states = AdvertState(first, 0.0), ParentAdvertState(first, 0.0)
    now, report_at = 0.0, 0.0
    for gap, queue_avg, new_report, sent in history:
        now += gap
        if new_report:
            report_at += 1.0
        beacon = advert(name, queue_avg, report_at)
        for state in states:
            state.refresh(beacon, now)
            state.sent_since_report += sent
    return states, now


@settings(max_examples=300, deadline=None)
@given(HISTORY, st.sampled_from([0.0, 1e-9, 0.3, 2.0, 40.0]))
def test_effective_queue_is_the_parents_to_the_bit(history, later):
    (state, parent), now = replay(history)
    for estimate in (True, False):
        assert state.effective_queue(now + later, estimate).hex() \
            == float(parent.effective_queue(now + later, estimate)).hex()


def test_duplicate_beacon_leaves_the_slope_alone():
    state = AdvertState(advert("w0", 2.0, 0.0), 0.0)
    state.refresh(advert("w0", 5.0, 1.0), 2.0)
    assert state.slope == 1.5
    state.refresh(advert("w0", 9.0, 1.0), 3.0)   # same report, re-sent
    assert (state.slope, state.queue_avg, state.received_at) \
        == (1.5, 5.0, 2.0)
    state.refresh(advert("w0", 9.0, 2.0), 2.0)   # new report, same instant
    assert state.slope == 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(HISTORY, min_size=1, max_size=5),
       st.sampled_from([0.0, 0.3, 2.0]), st.booleans(),
       st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_lottery_weights_are_the_effective_queues(histories, later,
                                                  estimate, gamma):
    candidates = [replay(history, f"w{index}")[0][0]
                  for index, history in enumerate(histories)]
    now = max(state.received_at for state in candidates) + later
    rng = CapturingRng()
    config = SNSConfig(estimate_queue_deltas=estimate, lottery_gamma=gamma)
    LotteryPolicy(config, rng).select(candidates, now)
    expected = [1.0 / (1.0 + state.effective_queue(now, estimate)) ** gamma
                for state in candidates]
    assert [w.hex() for w in rng.weights] == [w.hex() for w in expected]


# -- (b) Link.reserve and the meter it writes ----------------------------------

class ParentMeter(UtilizationMeter):
    """The meter as it was: every bucket, the open one last, a
    ``(bucket_id, bytes)`` pair in one deque."""

    def __init__(self, env):
        super().__init__(env)
        self._buckets = deque()

    def rate(self):
        horizon = int(self.env.now / self.bucket_width) - self._span
        buckets = self._buckets
        while buckets and buckets[0][0] < horizon:
            buckets.popleft()
        return sum([nbytes for _, nbytes in buckets]) / self.window


def meter_view(meter):
    """The meter's closed buckets and then its open one, as the pairs
    `ParentMeter` keeps."""
    view = list(meter._closed)
    if meter._open_id is not None:
        view.append((meter._open_id, meter._open_bytes))
    return view


class ParentLink(Link):
    """`Link.reserve` as it was: the bucket update behind a call that
    expired on every message, into a `ParentMeter`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._meter = ParentMeter(self.env)

    def _record(self, nbytes):
        meter = self._meter
        bucket_id = int(self.env._now / meter.bucket_width)
        buckets = meter._buckets
        if buckets and buckets[-1][0] == bucket_id:
            buckets[-1] = (bucket_id, buckets[-1][1] + nbytes)
        else:
            buckets.append((bucket_id, nbytes))
        horizon = bucket_id - meter._span
        while buckets and buckets[0][0] < horizon:
            buckets.popleft()

    def reserve(self, size_bytes):
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        now = self.env._now
        busy_until = self._busy_until
        start = busy_until if busy_until > now else now
        transmission = size_bytes / self.bandwidth_bps
        self._busy_until = start + transmission
        self.bytes_sent += size_bytes
        self.messages_sent += 1
        self._record(size_bytes)
        return (start - now) + transmission + self.latency_s


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    # the meter's window is 5 s in 0.5 s buckets: stay in a bucket,
    # step to the next, skip a few, outlast the window
    st.sampled_from([0.0, 0.01, 0.2, 0.5, 1.7, 4.9, 5.0, 5.6, 30.0]),
    st.one_of(st.just(0), st.integers(1, 200_000),
              st.floats(min_value=0.5, max_value=1e5)),
    st.booleans()), min_size=1, max_size=40))
def test_link_reserve_is_the_parents_to_the_bit(steps):
    env = Environment()
    link = Link(env, "pipe", bandwidth_bps=1e5)
    parent = ParentLink(env, "pipe", bandwidth_bps=1e5)
    for advance, size, read_rate in steps:
        env.run(until=env.now + advance)
        assert link.reserve(size).hex() == parent.reserve(size).hex()
        if read_rate:   # rate() expires too: both see the same reads
            assert link.utilization().hex() == parent.utilization().hex()
        assert meter_view(link._meter) == list(parent._meter._buckets)
        assert link.backlog_s.hex() == parent.backlog_s.hex()
        assert (link.bytes_sent, link.messages_sent) \
            == (parent.bytes_sent, parent.messages_sent)
    assert link._meter.rate().hex() == parent._meter.rate().hex()


# -- (c) Content.size ----------------------------------------------------------

@pytest.mark.parametrize("data", [b"", b"abc", bytes(1000), ZeroPayload(0),
                                  ZeroPayload(12345)])
def test_content_size_is_len_data_however_it_was_built(data):
    content = Content("http://x/a.gif", "image/gif", data, {"k": 1})
    built = {
        "direct": content,
        "derive": content.derive(data, worker="w"),
        "with_metadata": content.with_metadata(extra=True),
        "replace": dataclasses.replace(content, url="http://x/b.gif"),
        "replace-data": dataclasses.replace(content, data=b"12345"),
        "pickle": pickle.loads(pickle.dumps(content)),
        "deepcopy": copy.deepcopy(content),
    }
    for how, made in built.items():
        assert made.size == len(made.data), how
    assert built["replace-data"].size == 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        content.size = 7
    with pytest.raises(TypeError):
        Content("http://x/a.gif", "image/gif", data, {}, 7)  # not an init arg


def test_content_size_is_no_part_of_identity():
    content = Content("http://x/a.gif", "image/gif", b"abc", {"k": 1})
    fields = [field.name for field in dataclasses.fields(content)
              if field.compare]
    assert fields == ["url", "mime", "data", "metadata"]
    assert content == Content("http://x/a.gif", "image/gif", b"abc", {"k": 1})
    assert content == pickle.loads(pickle.dumps(content))
    assert content != Content("http://x/a.gif", "image/gif", b"abd", {"k": 1})
    assert ZeroPayload(3) == b"\x00\x00\x00"
    assert Content("u", "m", ZeroPayload(3)) == Content("u", "m", bytes(3))
    assert repr(content) == "<Content http://x/a.gif image/gif 3B>"
    with pytest.raises(TypeError):     # unhashable, as before: a dict field
        hash(content)


# -- (d) what a front end accepts from a service's handle() --------------------

def bench_service(profile_backend):
    fabric = build_bench_fabric(
        n_nodes=8, seed=5, config=SNSConfig(profile_backend=profile_backend))
    fabric.boot(n_frontends=1, initial_workers={JPEG: 2})
    fabric.cluster.run(until=2.0)
    return fabric.cluster, fabric.submit, fabric.service


def transend_service(_):
    service = TranSend(n_nodes=8, n_cache_nodes=2, seed=5).start(
        n_frontends=1, initial_workers={JPEG: 2})
    return service.cluster, service.submit, service.logic


@pytest.mark.parametrize("build, backend, handle_is_a_generator", [
    (bench_service, None, False),      # BenchService: a plain method,
    (bench_service, "single", False),  # with and without a store
    (transend_service, None, True),    # TranSendLogic
])
def test_front_end_drives_either_shape_of_handle(build, backend,
                                                 handle_is_a_generator):
    outcomes = {}
    for traced in (False, True):
        cluster, submit, logic = build(backend)
        assert inspect.isgeneratorfunction(logic.handle) \
            is handle_is_a_generator
        tracer = install_tracer(cluster, sample_every=1) if traced else None
        replies = [submit(make_record(index)) for index in range(6)]
        cluster.run(until=cluster.env.now + 30.0)
        outcomes[traced] = [(reply.value.status, reply.value.path,
                             reply.value.size_bytes) for reply in replies]
        assert [status for status, _, _ in outcomes[traced]] == ["ok"] * 6
        if traced:
            # the service read the span off its `Request`: its spans
            # hang under each request's service span
            names = [span.name for span in tracer.all_spans()]
            assert names.count("service") == 6
            assert names.count("dispatch") == 6
            assert names.count("cache-hit") == 6 \
                or names.count("cache-lookup") >= 6
    assert outcomes[False] == outcomes[True]


# -- (e) the Harvest latency model's bound draws -------------------------------

class ParentLatency:
    """`HarvestLatencyModel`'s draws as they were: through
    `Stream.exponential` / `Stream.pareto`, the rate divided per draw."""

    def __init__(self, rng, mean_hit_s, tcp_overhead_s, miss_min_s,
                 miss_max_s, miss_alpha):
        self.rng = rng
        self.mean_hit_s = mean_hit_s
        self.tcp_overhead_s = tcp_overhead_s
        self.miss_min_s = miss_min_s
        self.miss_max_s = miss_max_s
        self.miss_alpha = miss_alpha

    def hit_time(self):
        remainder = self.rng.exponential(self.mean_hit_s -
                                         self.tcp_overhead_s)
        return self.tcp_overhead_s + remainder

    def miss_penalty(self):
        penalty = self.rng.pareto(self.miss_alpha, self.miss_min_s)
        return min(penalty, self.miss_max_s)


LATENCY_PARAMETERS = [
    dict(mean_hit_s=0.027, tcp_overhead_s=0.015, miss_min_s=0.1,
         miss_max_s=100.0, miss_alpha=1.1),          # the paper's
    dict(mean_hit_s=0.03, tcp_overhead_s=0.0, miss_min_s=0.05,
         miss_max_s=0.2, miss_alpha=0.7),            # the clamp bites
    dict(mean_hit_s=1e-3, tcp_overhead_s=9e-4, miss_min_s=3.0,
         miss_max_s=3.0, miss_alpha=4.0),            # max == min
]


@pytest.mark.parametrize("parameters", LATENCY_PARAMETERS)
@pytest.mark.parametrize("seed", [1997, 2026])
def test_latency_draws_are_the_parents_to_the_bit(parameters, seed):
    model = HarvestLatencyModel(RandomStreams(seed).stream("cache"),
                                **parameters)
    parent = ParentLatency(RandomStreams(seed).stream("cache"),
                           **parameters)
    # hits alone, misses alone, then interleaved: both consume one
    # stream, so a draw out of step would show in every later one
    hits = [model.hit_time() for _ in range(10_000)]
    assert [draw.hex() for draw in hits] \
        == [parent.hit_time().hex() for _ in range(10_000)]
    misses = [model.miss_penalty() for _ in range(10_000)]
    assert [draw.hex() for draw in misses] \
        == [parent.miss_penalty().hex() for _ in range(10_000)]
    for index in range(5_000):
        if index % 3:
            assert model.hit_time().hex() == parent.hit_time().hex()
        else:
            assert model.miss_penalty().hex() \
                == parent.miss_penalty().hex()


def test_bound_origin_and_node_draws_follow_their_model():
    """The origin server and a cache node bind the model's draw once;
    the bound draw is the model's own stream, not a copy of it."""
    service = TranSend(n_nodes=4, n_cache_nodes=1, seed=5)
    origin = service.origin
    parent = ParentLatency(RandomStreams(5).stream("miss-penalty"),
                           **LATENCY_PARAMETERS[0])
    assert [origin._miss_penalty().hex() for _ in range(100)] \
        == [parent.miss_penalty().hex() for _ in range(100)]
    assert origin.latency.miss_penalty().hex() \
        == parent.miss_penalty().hex()


# -- (f) ring membership by event, placement by one hash -----------------------

class ParentPlacement:
    """`CacheSubsystem`'s placement as it was: every lookup and store
    first polled every node for liveness (`_note_crashes`), then
    located the key's md5 by name."""

    def __init__(self):
        self.nodes = {}
        self.partitioner = ModHashPartitioner()

    def add(self, cache_node):
        self.nodes[cache_node.name] = cache_node
        self.partitioner.add_node(cache_node.name)

    def _note_crashes(self):
        for name, cache_node in list(self.nodes.items()):
            if not cache_node.alive:
                self.partitioner.remove_node(name)
                del self.nodes[name]

    def node_for(self, key):
        try:
            name = self.partitioner.locate(key)
        except PartitionError:
            return None
        return self.nodes.get(name)


RING_OPS = st.lists(st.one_of(
    st.tuples(st.just("kill"), st.integers(0, 7)),
    st.tuples(st.just("add"), st.just(0)),
    st.tuples(st.sampled_from(["lookup", "store"]), st.integers(0, 40))),
    min_size=1, max_size=40)
PROBES = [f"probe{index}" for index in range(24)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), RING_OPS)
def test_event_driven_ring_is_the_polled_ring(n_nodes, ops):
    # the simulator never runs: each operation's job stays on the queue
    # of the node it was placed on, where the test collects it
    cluster = Cluster(seed=3)
    cachesys = CacheSubsystem(cluster)
    parent = ParentPlacement()

    def add():
        node = cluster.add_node(f"host{len(cluster.nodes)}")
        cache_node = cachesys.add_node(node, 1_000_000)
        parent.add(cache_node)
        return cache_node

    made = [add() for _ in range(n_nodes)]
    item = Content("http://x/a.gif", "image/gif", b"abc")
    for verb, argument in ops:
        if verb == "kill":
            made[argument % len(made)].kill()
            continue
        if verb == "add":
            made.append(add())
            continue
        key = f"key{argument}"
        parent._note_crashes()   # what the parent's operation did first
        assert list(cachesys.nodes) == list(parent.nodes)
        assert len(cachesys.partitioner) == len(parent.partitioner)
        assert cachesys.live == list(parent.nodes.values())
        for probe in PROBES + [key]:
            assert cachesys.node_for(probe) is parent.node_for(probe)
        target = parent.node_for(key)
        if verb == "store":
            cachesys.store(key, stable_hash(key), item)
        else:
            pending = cachesys.lookup(key, stable_hash(key))
            try:
                next(pending)    # enqueues, then waits
            except StopIteration:
                pass             # no node: a miss without a wait
        for cache_node in made:
            if cache_node is target:
                job = cache_node.queue.get_nowait()
                assert job[:2] == (verb, key)
            assert len(cache_node.queue) == 0
    names = [cache_node.name for cache_node in made]
    assert len(set(names)) == len(names)   # no default name reused


# -- (g) the profile read: one merged dict -------------------------------------

@pytest.mark.parametrize("profile", [
    {}, {"quality": 60}, {"scale": 4, "extra": "kept", "quality": 10},
    {"_user_set_quality": True, "quality": 90}])
def test_profile_overlay_is_the_parents_merge(profile):
    store = ProfileStore()
    for key, value in profile.items():
        store.set("u1", key, value)
    cache = WriteThroughCache(store)
    for _ in range(2):   # a miss, then a hit
        merged = dict(DEFAULT_PREFERENCES)
        merged.update(cache.get("u1"))     # the parent's two copies
        overlaid = cache.overlay("u1", DEFAULT_PREFERENCES)
        assert list(overlaid.items()) == list(merged.items())
        assert overlaid is not cache._cache["u1"]
    assert (cache.misses, cache.hits) == (1, 3)
    assert DEFAULT_PREFERENCES["quality"] == 25   # the base is untouched
