"""`repro.sim.hashing`: the one stable hash and the one ring.

`Ring` replaced two virtual-node rings — the cache partitioner's
(incremental add/remove, `locate`) and the hash-bounded routing
policy's (rebuilt per membership, walked past full workers).  Both are
kept below exactly as they were, and `Ring`, built for a membership,
must place and walk as they did once they had reached it.
"""

import bisect

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.balance.policies import HASH_RING_REPLICAS, BoundedLoadHashPolicy
from repro.core.config import SNSConfig
from repro.core.manager_stub import AdvertState
from repro.core.messages import WorkerAdvert
from repro.dstore.partition import Partitioner
from repro.sim.hashing import PartitionError, Ring, stable_hash

# -- the hash ------------------------------------------------------------------

#: recorded at the parent commit, where `cache.partition.stable_hash`,
#: `balance.BoundedLoadHashPolicy._hash` and
#: `dstore.Partitioner.partition_of` each spelled out the same md5 fold
VECTORS = {
    "": 15284527576400310788,
    "abc": 10376663631224000432,
    "http://host1/path1.gif": 14170196365049389590,
    "cache3#17": 4257215012665393464,
    "client0": 6669107115293997384,
    "naïve/ü": 10829615251145140798,
}


@pytest.mark.parametrize("value", sorted(VECTORS))
def test_stable_hash_vectors(value):
    assert stable_hash(value) == VECTORS[value]


def test_brick_partition_is_the_stable_hash_modulo_partitions():
    partitioner = Partitioner(n_bricks=3, replicas=2, n_partitions=16)
    for value, expected in VECTORS.items():
        assert partitioner.partition_of(value) == expected % 16


# -- the two rings `Ring` replaced ---------------------------------------------

class CacheRingReference:
    """`cache.partition.ConsistentHashRing` as it was."""

    def __init__(self, nodes=(), replicas=64):
        self.replicas = replicas
        self._ring = []
        self._owners = {}
        self._nodes = []
        for node in nodes:
            self.add_node(node)

    def add_node(self, node):
        self._nodes.append(node)
        for replica in range(self.replicas):
            point = stable_hash(f"{node}#{replica}")
            index = bisect.bisect(self._ring, point)
            self._ring.insert(index, point)
            self._owners[point] = node

    def remove_node(self, node):
        self._nodes.remove(node)
        for replica in range(self.replicas):
            point = stable_hash(f"{node}#{replica}")
            index = bisect.bisect_left(self._ring, point)
            if index < len(self._ring) and self._ring[index] == point:
                self._ring.pop(index)
            self._owners.pop(point, None)

    def locate(self, key):
        point = stable_hash(key)
        index = bisect.bisect(self._ring, point)
        if index == len(self._ring):
            index = 0
        return self._owners[self._ring[index]]

    def sits_on_a_point(self, key):
        return stable_hash(key) in self._owners


def routing_walk_reference(names, replicas, key):
    """The order `balance.BoundedLoadHashPolicy.select` visited workers
    in: a ring rebuilt from the candidate set, walked clockwise from
    the key's point, each worker once."""
    ring = sorted((stable_hash(f"{name}#{replica}"), name)
                  for name in names for replica in range(replicas))
    start = bisect.bisect_right(ring, (stable_hash(key), ""))
    order = []
    for offset in range(len(ring)):
        name = ring[(start + offset) % len(ring)][1]
        if name not in order:
            order.append(name)
    return order


NODES = st.lists(st.sampled_from([f"cache{i}" for i in range(12)]),
                 min_size=1, max_size=8, unique=True)
KEYS = st.lists(st.text(max_size=24), min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(nodes=NODES, keys=KEYS, replicas=st.integers(1, 64),
       edits=st.lists(st.tuples(st.booleans(), st.integers(0, 11)),
                      max_size=8))
def test_ring_places_like_the_cache_ring_through_add_and_remove(
        nodes, keys, replicas, edits):
    reference = CacheRingReference(nodes, replicas)
    members = list(nodes)

    def agree():
        ring = Ring(members, replicas)
        for key in keys:
            # the one place the two old rings disagreed: a key hashing
            # exactly onto a ring point (a key spelled "node#replica")
            # belonged to the next point on the cache ring and to that
            # point on the routing ring; `Ring` does as the routing ring
            assume(not reference.sits_on_a_point(key))
            assert ring.locate(key) == reference.locate(key)

    agree()
    for add, index in edits:
        node = f"cache{index}"
        if add and node not in members:
            reference.add_node(node)
            members.append(node)
        elif not add and node in members and len(members) > 1:
            reference.remove_node(node)
            members.remove(node)
        agree()


@settings(max_examples=60, deadline=None)
@given(names=st.lists(st.sampled_from([f"w.{i}" for i in range(10)]),
                      min_size=1, max_size=8, unique=True),
       keys=KEYS)
def test_ring_walks_like_the_routing_ring(names, keys):
    ring = Ring(names, HASH_RING_REPLICAS)
    for key in keys + [f"{names[0]}#0"]:   # the last one sits on a point
        expected = routing_walk_reference(names, HASH_RING_REPLICAS, key)
        assert list(ring.walk(key)) == expected
        assert ring.locate(key) == expected[0]


def select_reference(names, outstanding, bound_factor, key):
    """`BoundedLoadHashPolicy.select` as it was, on the reference walk:
    the chosen worker and whether the pick counted as an overflow hop."""
    total = sum(outstanding.get(name, 0) for name in names)
    bound = max(1.0, bound_factor * (total + 1) / len(names))
    order = routing_walk_reference(names, HASH_RING_REPLICAS, key)
    for name in order:
        if outstanding.get(name, 0) + 1 <= bound:
            return name, name != order[0]
    return order[0], False


@settings(max_examples=60, deadline=None)
@given(loads=st.lists(st.integers(0, 6), min_size=1, max_size=8),
       bound_factor=st.sampled_from([1.0, 1.25, 2.0]),
       keys=st.lists(st.text(max_size=24) | st.none(), min_size=1,
                     max_size=12))
def test_hash_bounded_overflows_where_the_old_ring_did(loads, bound_factor,
                                                       keys):
    names = [f"w.{index}" for index in range(len(loads))]
    policy = BoundedLoadHashPolicy(
        SNSConfig(policy_hash_bound=bound_factor), None)
    candidates = [
        AdvertState(WorkerAdvert(
            worker_name=name, worker_type="t", node_name="node0",
            stub=None, queue_avg=0.0, last_report_at=0.0,
            service_ewma_s=0.0), 0.0)
        for name in names]
    outstanding = dict(zip(names, loads))
    policy.outstanding.update(outstanding)
    for key in keys:
        expected, hopped = select_reference(
            names, outstanding, bound_factor, key if key is not None else "")
        hops_before = policy.overflow_hops
        chosen = policy.select(candidates, 0.0, key=key)
        assert chosen.advert.worker_name == expected
        assert policy.overflow_hops - hops_before == int(hopped)


def test_walk_visits_every_node_once_and_construction_order_is_moot():
    forward = Ring(["a", "b", "c", "d"], replicas=16)
    backward = Ring(frozenset("dcba"), replicas=16)
    for key in ("k1", "k2", "http://x/y.gif"):
        order = list(forward.walk(key))
        assert sorted(order) == ["a", "b", "c", "d"]
        assert list(backward.walk(key)) == order


def test_ring_membership_errors():
    with pytest.raises(PartitionError):
        Ring(["a", "a"])
    empty = Ring()
    assert list(empty.walk("key")) == []
    with pytest.raises(PartitionError):
        empty.locate("key")
    with pytest.raises(ValueError):
        Ring(replicas=0)
