"""Tests for TranSend's cache subsystem."""

import pytest

from repro.sim.cluster import Cluster
from repro.tacc.content import MIME_JPEG, Content
from repro.transend.cachesys import CacheSubsystem


def build(n_nodes=3, capacity=1_000_000):
    cluster = Cluster(seed=4)
    cachesys = CacheSubsystem(cluster)
    for index in range(n_nodes):
        node = cluster.add_node(f"c{index}")
        cachesys.add_node(node, capacity)
    return cluster, cachesys


def content(url="http://x/a.jpg", size=1000):
    return Content(url, MIME_JPEG, b"j" * size)


def run(cluster, generator):
    return cluster.env.run(until=cluster.env.process(generator))


def test_store_then_lookup_hits():
    cluster, cachesys = build()
    item = content()
    cachesys.store("k1", item)

    def scenario():
        yield cluster.env.timeout(0.1)  # let the injection land
        found = yield from cachesys.lookup("k1")
        return found

    assert run(cluster, scenario()) is item
    assert cachesys.hits == 1


def test_lookup_miss_returns_none_and_counts():
    cluster, cachesys = build()

    def scenario():
        found = yield from cachesys.lookup("missing")
        return found

    assert run(cluster, scenario()) is None
    assert cachesys.misses == 1
    assert cachesys.hit_rate == 0.0


def test_lookup_pays_hit_latency():
    cluster, cachesys = build()
    cachesys.store("k1", content())

    def scenario():
        yield cluster.env.timeout(0.1)
        start = cluster.env.now
        yield from cachesys.lookup("k1")
        return cluster.env.now - start

    elapsed = run(cluster, scenario())
    assert elapsed >= 0.015  # at least the TCP overhead


def test_keys_partition_across_nodes():
    cluster, cachesys = build(n_nodes=3)
    owners = set()
    for index in range(60):
        node = cachesys.node_for(f"key{index}")
        owners.add(node.name)
    assert len(owners) == 3


def test_crashed_node_is_dropped_and_its_keys_rehash():
    cluster, cachesys = build(n_nodes=2)
    for index in range(40):
        cachesys.store(f"key{index}", content(url=f"http://x/{index}"))

    def scenario():
        yield cluster.env.timeout(0.5)
        victim = next(iter(cachesys.nodes.values()))
        victim_name = victim.name
        victim.kill()
        # a lookup after the crash triggers the rehash
        yield from cachesys.lookup("key0")
        return victim_name

    victim_name = run(cluster, scenario())
    assert victim_name not in cachesys.nodes
    assert len(cachesys.partitioner) == 1
    # all keys now route to the survivor
    survivor = next(iter(cachesys.nodes.values()))
    assert cachesys.node_for("anything") is survivor


def test_remove_node_loses_only_its_partition():
    cluster, cachesys = build(n_nodes=2)
    keys = [f"key{index}" for index in range(60)]
    placement = {key: cachesys.node_for(key).name for key in keys}
    for key in keys:
        cachesys.store(key, content(url=key))

    def scenario():
        yield cluster.env.timeout(1.0)
        removed = sorted(cachesys.nodes)[0]
        cachesys.nodes[removed].kill()
        yield cluster.env.timeout(0.1)
        survivors = []
        for key in keys:
            value = yield from cachesys.lookup(key)
            if value is not None:
                survivors.append(key)
        return removed, survivors

    removed, survivors = run(cluster, scenario())
    # mod-hash over 1 node: every key routes to the survivor; only keys
    # that were already there remain findable
    expected = [key for key in keys if placement[key] != removed]
    assert survivors == expected


def test_variant_index_returns_approximate_answer():
    cluster, cachesys = build()
    distilled_a = content("http://x/a.jpg", 500)
    cachesys.store("distilled:a|q=25", distilled_a,
                   variant_of="http://x/a.jpg")

    def scenario():
        yield cluster.env.timeout(0.1)
        variant = yield from cachesys.any_variant("http://x/a.jpg")
        nothing = yield from cachesys.any_variant("http://x/other.jpg")
        return variant, nothing

    variant, nothing = run(cluster, scenario())
    assert variant is distilled_a
    assert nothing is None


def test_cache_node_serializes_requests():
    """One cache node is a serial server (~37 req/s ceiling)."""
    cluster, cachesys = build(n_nodes=1)
    cachesys.store("k", content())

    def scenario():
        yield cluster.env.timeout(0.1)
        start = cluster.env.now
        events = [next(iter(cachesys.nodes.values())).lookup("k")
                  for _ in range(20)]
        yield cluster.env.all_of(events)
        return cluster.env.now - start

    elapsed = run(cluster, scenario())
    # 20 serial hits at ~27 ms each
    assert elapsed > 0.3
