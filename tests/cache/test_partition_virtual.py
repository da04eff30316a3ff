"""Tests for the cache partitioners and the latency model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.latency import HarvestLatencyModel
from repro.cache.partition import ModHashPartitioner, remap_fraction
from repro.sim.hashing import PartitionError, Ring, stable_hash
from repro.sim.rng import RandomStreams


KEYS = [f"http://host{i}/path{i}.gif" for i in range(2000)]
NODES = [f"cache{i}" for i in range(8)]


# -- partitioners -------------------------------------------------------------

PARTITIONERS = pytest.mark.parametrize("factory", [
    ModHashPartitioner, pytest.param(Ring, id="ConsistentHashRing")])


def test_stable_hash_is_deterministic():
    assert stable_hash("abc") == stable_hash("abc")
    assert stable_hash("abc") != stable_hash("abd")


@PARTITIONERS
def test_locate_is_deterministic_and_in_membership(factory):
    partitioner = factory(NODES)
    for key in KEYS[:100]:
        owner = partitioner.locate(key)
        assert owner in NODES
        assert partitioner.locate(key) == owner


@pytest.mark.parametrize("factory", [ModHashPartitioner])
def test_membership_errors(factory):
    partitioner = factory(["a"])
    with pytest.raises(PartitionError):
        partitioner.add_node("a")
    with pytest.raises(PartitionError):
        partitioner.remove_node("zzz")
    partitioner.remove_node("a")
    with pytest.raises(PartitionError):
        partitioner.locate("key")


@PARTITIONERS
def test_load_is_roughly_balanced(factory):
    partitioner = factory(NODES)
    counts = {node: 0 for node in NODES}
    for key in KEYS:
        counts[partitioner.locate(key)] += 1
    expected = len(KEYS) / len(NODES)
    for node, count in counts.items():
        assert count > expected * 0.4, f"{node} starved: {count}"
        assert count < expected * 1.9, f"{node} overloaded: {count}"


def test_consistent_hashing_moves_far_fewer_keys_than_mod_hash():
    """The ablation headline: removing one of 8 nodes remaps ~85 % of
    surviving keys under mod-hash but only a few percent under
    consistent hashing."""
    mod_moved = remap_fraction(ModHashPartitioner, KEYS, NODES, "cache3")
    ring_moved = remap_fraction(Ring, KEYS, NODES, "cache3")
    assert mod_moved > 0.7
    assert ring_moved < 0.15
    assert ring_moved < mod_moved / 4


# -- latency model ---------------------------------------------------------------

def test_hit_time_statistics_match_paper():
    """Mean hit ~27 ms, P95 < 100 ms (Section 4.4)."""
    model = HarvestLatencyModel(RandomStreams(7).stream("cache"))
    samples = sorted(model.hit_time() for _ in range(20000))
    mean = sum(samples) / len(samples)
    p95 = samples[int(0.95 * len(samples))]
    assert mean == pytest.approx(0.027, rel=0.1)
    assert p95 < 0.100
    assert min(samples) >= 0.015  # TCP overhead floor


def test_miss_penalty_spans_paper_range():
    """Miss penalties run 100 ms to 100 s, heavy-tailed."""
    model = HarvestLatencyModel(RandomStreams(7).stream("cache"))
    samples = [model.miss_penalty() for _ in range(20000)]
    assert min(samples) >= 0.100
    assert max(samples) <= 100.0
    assert max(samples) > 10.0       # the tail is real
    median = sorted(samples)[len(samples) // 2]
    assert median < 0.5              # most fetches are sub-second


def test_max_hit_service_rate_is_37_per_second():
    model = HarvestLatencyModel(RandomStreams(7).stream("cache"))
    assert 1.0 / model.mean_hit_s == pytest.approx(37.0, abs=0.1)


def test_latency_model_validates_parameters():
    rng = RandomStreams(7).stream("cache")
    with pytest.raises(ValueError):
        HarvestLatencyModel(rng, mean_hit_s=0.010, tcp_overhead_s=0.015)


@pytest.mark.parametrize("field, overrides", [
    ("tcp_overhead_s", dict(tcp_overhead_s=-0.001)),
    ("tcp_overhead_s", dict(tcp_overhead_s=float("nan"))),
    ("mean_hit_s", dict(mean_hit_s=0.015)),
    ("mean_hit_s", dict(mean_hit_s=float("nan"))),
    ("miss_min_s", dict(miss_min_s=0.0)),
    ("miss_min_s", dict(miss_min_s=-1.0)),
    ("miss_max_s", dict(miss_max_s=0.05)),
    ("miss_max_s", dict(miss_max_s=float("nan"))),
    ("miss_alpha", dict(miss_alpha=0.0)),
    ("miss_alpha", dict(miss_alpha=-1.1)),
])
def test_latency_model_rejects_bad_values_at_construction(field, overrides):
    """Each bad value fails where the model is built, naming its field —
    not at the first draw inside a run, and never silently."""
    rng = RandomStreams(7).stream("cache")
    with pytest.raises(ValueError, match=f"^{field}="):
        HarvestLatencyModel(rng, **overrides)


def test_latency_model_accepts_the_edges():
    rng = RandomStreams(7).stream("cache")
    model = HarvestLatencyModel(rng, tcp_overhead_s=0.0, miss_min_s=2.0,
                                miss_max_s=2.0)
    assert model.hit_time() > 0.0
    assert model.miss_penalty() == 2.0
