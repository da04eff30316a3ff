"""Ablation benchmarks for the design choices DESIGN.md section 5 calls
out: stale hints vs delta estimation, lottery vs blind random balancing,
overflow pool on/off, the 1 KB distillation threshold, and mod-hash vs
consistent hashing."""

import pytest

from benchmarks.conftest import run_once
from repro.cache.partition import ModHashPartitioner, remap_fraction
from repro.core.config import SNSConfig
from repro.experiments._harness import build_bench_fabric, jpeg_pool
from repro.sim.hashing import Ring
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine
from repro.workload.tracegen import TraceGenerator


def _drive(fabric, rate, duration, seed=1997, timeout_s=45.0):
    engine = PlaybackEngine(
        fabric.cluster.env, fabric.submit,
        rng=RandomStreams(seed).stream("ablation-playback"),
        timeout_s=timeout_s)
    pool = jpeg_pool(40)
    fabric.cluster.env.process(
        engine.constant_rate(rate, duration, pool))
    return engine


def _queue_swing(estimate_deltas: bool, seed: int = 1997) -> float:
    """Mean sample-to-sample queue change near saturation."""
    config = SNSConfig(estimate_queue_deltas=estimate_deltas,
                       spawn_threshold=1e9, report_interval_s=1.0,
                       beacon_interval_s=1.0)
    fabric = build_bench_fabric(n_nodes=8, seed=seed, config=config)
    fabric.boot(n_frontends=1, initial_workers={"jpeg-distiller": 2})
    fabric.cluster.run(until=2.0)
    _drive(fabric, rate=42.0, duration=60.0, seed=seed, timeout_s=120.0)
    samples = {stub.name: [] for stub in fabric.alive_workers()}

    def sampler(env):
        while env.now < 62.0:
            yield env.timeout(0.5)
            for stub in fabric.alive_workers():
                samples[stub.name].append(stub.load)

    fabric.cluster.env.process(sampler(fabric.cluster.env))
    fabric.cluster.run(until=130.0)
    swings = []
    for series in samples.values():
        diffs = [abs(b - a) for a, b in zip(series, series[1:])]
        if diffs:
            swings.append(sum(diffs) / len(diffs))
    return sum(swings) / len(swings)


def test_ablation_queue_delta_estimation(benchmark):
    """Section 4.5's oscillation bug and fix, quantified."""

    def both():
        return (_queue_swing(estimate_deltas=False),
                _queue_swing(estimate_deltas=True))

    stale_swing, estimated_swing = run_once(benchmark, both)
    print(f"\nqueue swing with stale-only hints:   {stale_swing:.2f}")
    print(f"queue swing with delta estimation:   {estimated_swing:.2f}")
    benchmark.extra_info["stale_swing"] = round(stale_swing, 3)
    benchmark.extra_info["estimated_swing"] = round(estimated_swing, 3)
    assert estimated_swing < stale_swing * 0.8


def _tail_latency(lottery_gamma: float, seed: int = 1997) -> float:
    config = SNSConfig(lottery_gamma=lottery_gamma, spawn_threshold=1e9)
    fabric = build_bench_fabric(n_nodes=10, seed=seed, config=config)
    fabric.boot(n_frontends=1, initial_workers={"jpeg-distiller": 3})
    fabric.cluster.run(until=2.0)
    engine = _drive(fabric, rate=55.0, duration=60.0, seed=seed,
                    timeout_s=120.0)
    fabric.cluster.run(until=150.0)
    latencies = sorted(engine.latencies())
    return latencies[int(0.95 * len(latencies))] if latencies else 0.0


def test_ablation_lottery_vs_blind_random(benchmark):
    """Queue-weighted lottery (the paper's policy) vs uniform random
    worker choice (gamma=0)."""

    def both():
        return (_tail_latency(lottery_gamma=0.0),
                _tail_latency(lottery_gamma=2.0))

    random_p95, lottery_p95 = run_once(benchmark, both)
    print(f"\np95 latency, blind random:       {random_p95:.2f}s")
    print(f"p95 latency, weighted lottery:   {lottery_p95:.2f}s")
    benchmark.extra_info["random_p95_s"] = round(random_p95, 3)
    benchmark.extra_info["lottery_p95_s"] = round(lottery_p95, 3)
    assert lottery_p95 <= random_p95 * 1.1  # never meaningfully worse


def _burst_outcome(use_overflow: bool, seed: int = 1997):
    config = SNSConfig(use_overflow_pool=use_overflow,
                       spawn_damping_s=4.0, dispatch_timeout_s=6.0)
    fabric = build_bench_fabric(n_nodes=4, n_overflow=8, seed=seed,
                                config=config)
    fabric.boot(n_frontends=1, initial_workers={"jpeg-distiller": 1})
    fabric.cluster.run(until=2.0)
    engine = _drive(fabric, rate=90.0, duration=45.0, seed=seed,
                    timeout_s=30.0)
    fabric.cluster.run(until=120.0)
    fallbacks = sum(1 for outcome in engine.completed()
                    if getattr(outcome.response, "status", "") ==
                    "fallback")
    bad = len(engine.failed()) + fallbacks
    return bad, len(engine.outcomes)


def test_ablation_overflow_pool(benchmark):
    """Section 2.2.3: the overflow pool absorbs bursts the dedicated
    pool cannot."""

    def both():
        return (_burst_outcome(use_overflow=False),
                _burst_outcome(use_overflow=True))

    (bad_without, total_without), (bad_with, total_with) = \
        run_once(benchmark, both)
    rate_without = bad_without / total_without
    rate_with = bad_with / total_with
    print(f"\nburst degradation without overflow: {rate_without:.1%}")
    print(f"burst degradation with overflow:    {rate_with:.1%}")
    benchmark.extra_info["degraded_without"] = round(rate_without, 4)
    benchmark.extra_info["degraded_with"] = round(rate_with, 4)
    assert rate_with < rate_without


def test_ablation_distillation_threshold(benchmark):
    """The 1 KB threshold: bytes saved vs distillations performed as the
    threshold sweeps (the paper argues 1 KB 'exactly separates' GIF's
    icon and photo classes)."""

    def sweep():
        generator = TraceGenerator(seed=1997, mean_rate_rps=50.0,
                                   with_daily_cycle=False,
                                   with_bursts=False)
        records = [record for record in generator.generate(400.0)
                   if record.mime in ("image/gif", "image/jpeg")]
        results = {}
        for threshold in (0, 256, 1024, 4096, 16384):
            distilled = [r for r in records if r.size_bytes >= threshold]
            bytes_in = sum(r.size_bytes for r in distilled)
            # conservative ~6x image reduction at default preferences
            bytes_saved = bytes_in * (1 - 1 / 6)
            work_s = sum(0.008 + 0.008 * r.size_bytes / 1024
                         for r in distilled)
            results[threshold] = (len(distilled), bytes_saved, work_s)
        return records, results

    records, results = run_once(benchmark, sweep)
    print(f"\nthreshold sweep over {len(records)} image requests:")
    print(f"{'threshold':>10} {'distilled':>10} {'MB saved':>10} "
          f"{'cpu s':>8} {'KB saved per cpu s':>20}")
    for threshold, (count, saved, work) in sorted(results.items()):
        print(f"{threshold:>10} {count:>10} {saved / 1e6:>10.1f} "
              f"{work:>8.1f} {saved / 1024 / work:>20.1f}")
    # raising the threshold 0 -> 1 KB cuts work much more than savings
    count0, saved0, work0 = results[0]
    count1k, saved1k, work1k = results[1024]
    assert work1k < work0
    assert saved1k > saved0 * 0.90   # keeps >=90% of the byte savings
    efficiency0 = saved0 / work0
    efficiency1k = saved1k / work1k
    assert efficiency1k > efficiency0  # better KB saved per CPU second


def _damping_outcome(damping_s: float, seed: int = 1997):
    """Churn (spawns+reaps) and tail latency for one value of D."""
    config = SNSConfig(spawn_threshold=8.0, spawn_damping_s=damping_s,
                       reap_after_s=20.0, dispatch_timeout_s=8.0)
    fabric = build_bench_fabric(n_nodes=16, seed=seed, config=config)
    fabric.boot(n_frontends=1, initial_workers={"jpeg-distiller": 1})
    fabric.cluster.run(until=2.0)
    engine = _drive(fabric, rate=70.0, duration=80.0, seed=seed,
                    timeout_s=120.0)
    fabric.cluster.run(until=200.0)
    latencies = sorted(engine.latencies())
    p95 = latencies[int(0.95 * len(latencies))] if latencies else 0.0
    churn = fabric.manager.spawns + fabric.manager.reaps
    return churn, p95


def test_ablation_spawn_damping(benchmark):
    """Section 4.5: 'the parameter D represents a tradeoff between
    stability (rate of spawning and reaping distillers) and
    user-perceptible delay.'  Small D reacts fast but churns; huge D is
    calm but slow to absorb the ramp."""

    def sweep():
        return {damping: _damping_outcome(damping)
                for damping in (2.0, 10.0, 40.0)}

    outcomes = run_once(benchmark, sweep)
    print("\nspawn damping D vs churn and user-perceptible delay:")
    print(f"{'D (s)':>6} {'spawns+reaps':>13} {'p95 latency':>12}")
    for damping, (churn, p95) in sorted(outcomes.items()):
        print(f"{damping:>6.0f} {churn:>13} {p95:>11.2f}s")
    benchmark.extra_info["churn_at_2s"] = outcomes[2.0][0]
    benchmark.extra_info["churn_at_40s"] = outcomes[40.0][0]
    # the paper's tradeoff, measured: tighter damping reacts no slower
    # (p95 at D=2 <= p95 at D=40) and bigger damping churns no more
    assert outcomes[2.0][0] >= outcomes[40.0][0]   # churn falls with D
    assert outcomes[2.0][1] <= outcomes[40.0][1] * 1.5
    # every setting still serves the load
    for damping, (churn, p95) in outcomes.items():
        assert p95 < 60.0, (damping, p95)


def test_ablation_mod_hash_vs_consistent_hash(benchmark):
    """Section 3.1.5's re-hash, quantified: fraction of surviving keys
    that move when one of 8 cache nodes leaves."""
    keys = [f"http://host{i}/obj{i}" for i in range(5000)]
    nodes = [f"cache{i}" for i in range(8)]

    def both():
        return (
            remap_fraction(ModHashPartitioner, keys, nodes, "cache3"),
            remap_fraction(Ring, keys, nodes, "cache3"),
        )

    mod_moved, ring_moved = run_once(benchmark, both)
    print(f"\nkeys remapped on node loss (mod-hash):    {mod_moved:.0%}")
    print(f"keys remapped on node loss (consistent):  {ring_moved:.0%}")
    benchmark.extra_info["mod_hash_moved"] = round(mod_moved, 3)
    benchmark.extra_info["consistent_moved"] = round(ring_moved, 3)
    assert mod_moved > 0.7
    assert ring_moved < 0.15
