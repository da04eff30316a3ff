"""Tests for the trace-driven cache simulator."""

import pytest

from repro.cache.simulator import CacheSimulator
from repro.sim.rng import RandomStreams


def zipf_trace(n_requests=5000, n_docs=500, seed=3):
    rng = RandomStreams(seed).stream("trace")
    return [
        (f"doc{rng.zipf_rank(n_docs)}", 1000) for _ in range(n_requests)
    ]


def hit_rate(trace, capacity_bytes):
    return CacheSimulator(capacity_bytes).run(trace).hit_rate


def test_repeated_key_hits_after_first_reference():
    sim = CacheSimulator(10_000)
    assert sim.reference("a", 100) is False
    assert sim.reference("a", 100) is True
    assert sim.hit_rate == 0.5


def test_byte_hit_rate_weighs_by_size():
    sim = CacheSimulator(10_000)
    sim.reference("small", 10)
    sim.reference("big", 1000)
    sim.reference("big", 1000)      # hit: 1000 bytes from cache
    assert sim.byte_hit_rate == pytest.approx(1000 / 2010)


def test_hit_rate_monotone_in_cache_size():
    trace = zipf_trace()
    sizes = [2_000, 10_000, 50_000, 200_000, 1_000_000]
    values = [hit_rate(trace, size) for size in sizes]
    for smaller, bigger in zip(values, values[1:]):
        assert bigger >= smaller - 1e-9


def test_hit_rate_plateaus_once_working_set_fits():
    """Past the working-set size, more cache buys nothing — the paper's
    plateau observation."""
    trace = zipf_trace(n_requests=5000, n_docs=200)  # working set 200 KB
    rate_at_fit = hit_rate(trace, 200 * 1000)
    rate_at_10x = hit_rate(trace, 2000 * 1000)
    assert rate_at_10x == pytest.approx(rate_at_fit, abs=0.01)


def test_zero_requests_zero_rates():
    sim = CacheSimulator(1000)
    assert sim.hit_rate == 0.0
    assert sim.byte_hit_rate == 0.0
