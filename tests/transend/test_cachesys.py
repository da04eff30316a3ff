"""Tests for TranSend's cache subsystem."""

import pytest

from repro.sim.cluster import Cluster
from repro.sim.hashing import PartitionError, stable_hash
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


def store(cachesys, key, item, variant_of=None):
    cachesys.store(key, stable_hash(key), item, variant_of=variant_of)


def lookup(cachesys, key):
    return cachesys.lookup(key, stable_hash(key))


def test_store_then_lookup_hits():
    cluster, cachesys = build()
    item = content()
    store(cachesys, "k1", item)

    def scenario():
        yield cluster.env.timeout(0.1)  # let the injection land
        found = yield from lookup(cachesys, "k1")
        return found

    assert run(cluster, scenario()) is item
    assert cachesys.hits == 1


def test_lookup_miss_returns_none_and_counts():
    cluster, cachesys = build()

    def scenario():
        found = yield from lookup(cachesys, "missing")
        return found

    assert run(cluster, scenario()) is None
    assert cachesys.misses == 1
    assert cachesys.hit_rate == 0.0


def test_lookup_pays_hit_latency():
    cluster, cachesys = build()
    store(cachesys, "k1", content())

    def scenario():
        yield cluster.env.timeout(0.1)
        start = cluster.env.now
        yield from lookup(cachesys, "k1")
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


def test_a_lookup_and_a_store_reach_the_node_for_their_key():
    cluster, cachesys = build(n_nodes=3)
    keys = [f"key{index}" for index in range(30)]
    for key in keys:
        store(cachesys, key, content(url=key))

    def scenario():
        yield cluster.env.timeout(1.0)
        for key in keys:
            yield from lookup(cachesys, key)

    run(cluster, scenario())
    for cache_node in cachesys.nodes.values():
        mine = [key for key in keys if cachesys.node_for(key) is cache_node]
        assert sorted(cache_node.store.keys()) == sorted(mine)
        assert cache_node.store.hits == cache_node.stores == len(mine)
    assert cachesys.hits == len(keys)


def test_crashed_node_is_dropped_and_its_keys_rehash():
    cluster, cachesys = build(n_nodes=2)
    for index in range(40):
        store(cachesys, f"key{index}", content(url=f"http://x/{index}"))

    def scenario():
        yield cluster.env.timeout(0.5)
        victim = next(iter(cachesys.nodes.values()))
        victim.kill()
        # the re-hash happened at kill(), before any operation
        assert victim.name not in cachesys.nodes
        assert victim not in cachesys.live
        assert len(cachesys.live) == 1
        yield from lookup(cachesys, "key0")
        return victim.name

    victim_name = run(cluster, scenario())
    assert victim_name not in cachesys.nodes
    # all keys now route to the survivor
    survivor = next(iter(cachesys.nodes.values()))
    assert cachesys.live == [survivor]
    assert cachesys.node_for("anything") is survivor


def test_remove_node_loses_only_its_partition():
    cluster, cachesys = build(n_nodes=2)
    keys = [f"key{index}" for index in range(60)]
    placement = {key: cachesys.node_for(key).name for key in keys}
    for key in keys:
        store(cachesys, key, content(url=key))

    def scenario():
        yield cluster.env.timeout(1.0)
        removed = sorted(cachesys.nodes)[0]
        cachesys.nodes[removed].kill()
        yield cluster.env.timeout(0.1)
        survivors = []
        for key in keys:
            value = yield from lookup(cachesys, key)
            if value is not None:
                survivors.append(key)
        return removed, survivors

    removed, survivors = run(cluster, scenario())
    # mod-hash over 1 node: every key routes to the survivor; only keys
    # that were already there remain findable
    expected = [key for key in keys if placement[key] != removed]
    assert survivors == expected


def test_added_node_after_a_crash_takes_a_fresh_name():
    cluster, cachesys = build(n_nodes=3)
    made = list(cachesys.nodes.values())
    cachesys.nodes["cache.2"].kill()
    made.append(cachesys.add_node(cluster.add_node("c3"), 1_000_000))
    names = [cache_node.name for cache_node in made]
    assert len(set(names)) == 4
    assert sorted(cachesys.nodes) == ["cache.1", "cache.3", "cache.4"]
    assert cachesys.live == [cachesys.nodes[name]
                             for name in ("cache.1", "cache.3", "cache.4")]
    assert all(cache_node.alive for cache_node in cachesys.live)


def test_a_taken_name_is_refused_before_anything_changes():
    cluster, cachesys = build(n_nodes=2)
    before = (dict(cachesys.nodes), list(cachesys.live))
    node = cluster.add_node("spare")
    cachesys._added = 0   # the next serial name, cache.1, is taken
    with pytest.raises(PartitionError):
        cachesys.add_node(node, 1_000_000)
    assert (cachesys.nodes, cachesys.live) == before
    assert node.components == set()  # nothing was started on it


def test_variant_index_returns_approximate_answer():
    cluster, cachesys = build()
    distilled_a = content("http://x/a.jpg", 500)
    store(cachesys, "distilled:a|q=25", distilled_a,
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
    store(cachesys, "k", content())
    env = cluster.env

    def scenario():
        yield env.timeout(0.1)
        start = env.now
        yield env.all_of([env.process(lookup(cachesys, "k"))
                          for _ in range(20)])
        return env.now - start

    elapsed = run(cluster, scenario())
    # 20 serial hits at ~27 ms each
    assert elapsed > 0.3
    assert cachesys.hits == 20
