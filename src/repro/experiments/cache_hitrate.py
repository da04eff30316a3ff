"""The Section 4.4 cache simulations.

"We ran a number of cache simulations to explore the relationship
between user population size, cache size, and cache hit rate, using LRU
replacement."  The findings to reproduce in shape:

* hit rate rises monotonically with cache size and **plateaus** at a
  population-determined level (≈56 % at 6 GB for ~8000 users);
* for a fixed cache size, hit rate first **rises with population**
  (cross-user locality) then **falls** once the union of working sets
  exceeds the cache.

Scaling note: the paper's 8000 users / 6 GB shrink to ``n_users`` /
``capacities`` here with document counts reduced proportionally — the
shape (plateau level and crossover), not the absolute byte counts, is
the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.reporting import render_histogram
from repro.cache.simulator import CacheSimulator
from repro.sim.rng import RandomStreams
from repro.workload.tracegen import DocumentUniverse, TraceGenerator

PAPER_PLATEAU_HIT_RATE = 0.56


@dataclass
class CacheStudyResult:
    sweep: List[Tuple[float, float]]     # (x value, hit rate)
    x_label: str
    byte_hit_rates: Dict[float, float]

    def render(self) -> str:
        return render_histogram(
            [(f"{x:g}", hit_rate) for x, hit_rate in self.sweep],
            width=40,
            title=f"Cache study, Section 4.4 ({self.x_label} vs hit rate)",
        )

    def plateau(self) -> float:
        """Hit rate at the largest x (the plateau for size sweeps)."""
        return self.sweep[-1][1] if self.sweep else 0.0


#: the population sweep's fixed cache size
POPULATION_CACHE_BYTES = 24_000_000


def _population_trace(n_users: int, n_requests: int, seed: int):
    """References (key, size) from a population of the given size.

    Locality parameters (50 % shared references over a 30 k-document
    Zipf(0.7) head, 500-document private tails) are calibrated so the
    800-user sweep plateaus near the paper's 56 % hit rate.
    """
    generator = TraceGenerator(
        seed=seed,
        n_users=n_users,
        mean_rate_rps=50.0,
        with_daily_cycle=False,
        with_bursts=False,
        universe=DocumentUniverse(
            RandomStreams(seed).stream("universe"),
            n_shared_docs=30_000,
            n_private_per_user=500,
            shared_fraction=0.5,
            zipf_alpha=0.7,
        ),
    )
    records = generator.generate(n_requests / 50.0)
    return [(record.url, record.size_bytes) for record in records]


def _size_sweep_point(capacity_bytes: int, n_users: int,
                      n_requests: int, seed: int
                      ) -> Tuple[float, float, float]:
    """One cache-size grid point, self-contained for fan-out: rebuild
    the (deterministic) population trace and run one capacity."""
    references = _population_trace(n_users, n_requests, seed)
    simulator = CacheSimulator(capacity_bytes).run(references)
    return (capacity_bytes / 1e6, simulator.hit_rate,
            simulator.byte_hit_rate)


def _population_sweep_point(population: int, requests_per_user: int,
                            seed: int) -> Tuple[float, float, float]:
    """One population grid point, self-contained for fan-out."""
    references = _population_trace(
        population, population * requests_per_user, seed)
    simulator = CacheSimulator(POPULATION_CACHE_BYTES).run(references)
    return (float(population), simulator.hit_rate,
            simulator.byte_hit_rate)


def _assemble(points: List[Tuple[float, float, float]],
              x_label: str) -> CacheStudyResult:
    return CacheStudyResult(
        sweep=[(x, hit_rate) for x, hit_rate, _ in points],
        x_label=x_label,
        byte_hit_rates={x: byte_rate for x, _, byte_rate in points},
    )


def run_cache_size_sweep(
    capacities_bytes: Sequence[int] = (
        2_000_000, 8_000_000, 32_000_000, 128_000_000, 512_000_000),
    n_users: int = 800,
    n_requests: int = 60_000,
    seed: int = 1997,
    jobs: int = 1,
) -> CacheStudyResult:
    """Hit rate vs total cache size for a fixed population.

    ``jobs > 1`` fans one shard per capacity across worker processes
    (each regenerates the deterministic trace from the seed); the
    serial path shares one trace across capacities.  Output is
    byte-identical either way.
    """
    if jobs > 1:
        from repro.experiments._harness import run_grid
        points = run_grid(
            _size_sweep_point,
            [dict(capacity_bytes=capacity, n_users=n_users,
                  n_requests=n_requests, seed=seed)
             for capacity in capacities_bytes],
            jobs=jobs, label="cache-size").values()
        return _assemble(points, "cache MB")
    references = _population_trace(n_users, n_requests, seed)
    points = []
    for capacity in capacities_bytes:
        simulator = CacheSimulator(capacity).run(references)
        points.append((capacity / 1e6, simulator.hit_rate,
                       simulator.byte_hit_rate))
    return _assemble(points, "cache MB")


def run_population_sweep(
    populations: Sequence[int] = (25, 100, 400, 1600, 6400),
    requests_per_user: int = 60,
    seed: int = 1997,
    jobs: int = 1,
) -> CacheStudyResult:
    """Hit rate vs population for a fixed cache size.

    Requests scale with population (more users, more traffic over the
    same wall-clock window), which is exactly what makes small
    populations compulsory-miss-bound and large ones capacity-bound.
    Each population is an independent simulation; ``jobs > 1`` fans
    them out with byte-identical results.
    """
    points_kwargs = [
        dict(population=population,
             requests_per_user=requests_per_user, seed=seed)
        for population in populations
    ]
    if jobs > 1:
        from repro.experiments._harness import run_grid
        points = run_grid(_population_sweep_point, points_kwargs,
                          jobs=jobs, label="population").values()
    else:
        points = [_population_sweep_point(**kwargs)
                  for kwargs in points_kwargs]
    return _assemble(points, "users")
