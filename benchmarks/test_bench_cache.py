"""Microbenchmark: LRU operations/second, the per-reference cost of
every Section 4.4 cache simulation."""

from repro.cache.lru import LRUCache
from repro.sim.rng import RandomStreams


def test_lru_reference_throughput(benchmark):
    rng = RandomStreams(1997).stream("bench-lru")
    keys = [f"doc{rng.zipf_rank(5000)}" for _ in range(20_000)]
    cache = LRUCache(2_000_000)

    def run_references():
        for key in keys:
            if cache.get(key) is None:
                cache.put(key, True, 1000)

    benchmark(run_references)
    assert cache.hits > 0
