"""Streaming workload playback: equivalence and bounded memory.

The million-request replay path must produce byte-identical results to
the in-memory path — same RNG draws, same record order, same outcomes —
while never materializing the trace or the per-request outcome list.
"""

import tracemalloc

from repro.sim.kernel import Environment
from repro.workload.playback import PlaybackEngine
from repro.workload.trace import TraceRecord, iter_trace, load_trace, \
    save_trace
from repro.workload.tracegen import TraceGenerator, iter_fixed_jpeg_trace


def fixed_jpeg_records(rate_rps, n_requests, seed):
    return list(iter_fixed_jpeg_trace(rate_rps=rate_rps,
                                      n_requests=n_requests, seed=seed))


# -- generator equivalence -------------------------------------------------


def test_iter_generate_matches_generate():
    materialized = TraceGenerator(seed=42, n_users=200).generate(30.0)
    streamed = list(TraceGenerator(seed=42, n_users=200).iter_generate(30.0))
    assert streamed == materialized
    timestamps = [record.timestamp for record in streamed]
    assert timestamps == sorted(timestamps)


def test_iter_fixed_jpeg_trace_is_lazy_and_count_bounded():
    iterator = iter_fixed_jpeg_trace(rate_rps=100.0, n_requests=5)
    records = list(iterator)
    assert len(records) == 5
    assert all(isinstance(record, TraceRecord) for record in records)
    timestamps = [record.timestamp for record in records]
    assert timestamps == sorted(timestamps)


def test_iter_trace_streams_file(tmp_path):
    path = str(tmp_path / "trace.tsv")
    records = fixed_jpeg_records(20.0, 100, seed=3)
    save_trace(records, path)
    # timestamps roundtrip at the file format's 6-decimal precision, so
    # compare the two readers to each other and the shape to the source
    streamed = list(iter_trace(path))
    assert streamed == load_trace(path)
    assert [record.url for record in streamed] == \
        [record.url for record in records]


# -- playback equivalence --------------------------------------------------


def _echo_adapter(env, service_s=0.01):
    def submit(record):
        return env.timeout(service_s, value=f"ok:{record.url}")
    return submit


def _replay(records_factory, record_outcomes=True):
    env = Environment()
    engine = PlaybackEngine(env, _echo_adapter(env),
                            record_outcomes=record_outcomes)
    env.process(engine.play(records_factory()))
    env.run()
    return env, engine


def test_play_accepts_generator_and_matches_list_playback():
    records = fixed_jpeg_records(40.0, 400, seed=11)
    env_list, from_list = _replay(lambda: list(records))
    env_gen, from_gen = _replay(lambda: iter(records))
    assert env_list.now == env_gen.now
    assert [
        (outcome.record, outcome.submitted_at, outcome.completed_at)
        for outcome in from_list.outcomes
    ] == [
        (outcome.record, outcome.submitted_at, outcome.completed_at)
        for outcome in from_gen.outcomes
    ]


def test_streaming_stats_match_recorded_outcomes():
    records = fixed_jpeg_records(40.0, 400, seed=11)
    _, recorded = _replay(lambda: iter(records), record_outcomes=True)
    _, streaming = _replay(lambda: iter(records), record_outcomes=False)

    assert streaming.outcomes == []  # bounded memory: nothing recorded
    stats = streaming.stats
    assert stats.submitted == len(records)
    assert stats.completed == len(recorded.completed())
    assert stats.failed == len(recorded.failed())
    latencies = recorded.latencies()
    assert stats.latency_min == min(latencies)
    assert stats.latency_max == max(latencies)
    assert abs(stats.mean_latency
               - sum(latencies) / len(latencies)) < 1e-12
    # both modes maintain the aggregate identically
    assert recorded.stats == streaming.stats


def test_streaming_replay_memory_stays_bounded():
    """A streaming replay must hold O(in-flight) memory, not O(trace):
    20k requests through the bounded-memory path should peak far below
    what materializing 20k records + outcomes would cost."""
    n_requests = 20_000
    env = Environment()
    engine = PlaybackEngine(env, _echo_adapter(env, service_s=0.001),
                            record_outcomes=False)
    trace = iter_fixed_jpeg_trace(rate_rps=500.0, n_requests=n_requests,
                                  seed=5)
    tracemalloc.start()
    env.process(engine.play(trace))
    env.run()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert engine.stats.completed == n_requests
    assert engine.outcomes == []
    # materialized: ~20k TraceRecords + ~20k RequestOutcomes is several
    # MB; the streaming path's peak is in-flight state only
    assert peak < 2 * 1024 * 1024, f"peak {peak} bytes"


def test_playback_stats_failure_accounting():
    env = Environment()

    def flaky(record):
        if record.url.endswith("img0.jpg"):
            raise RuntimeError("boom")
        return env.timeout(0.01, value="ok")

    records = fixed_jpeg_records(30.0, 150, seed=9)
    engine = PlaybackEngine(env, flaky, record_outcomes=False)
    env.process(engine.play(iter(records)))
    env.run()
    expected_failures = sum(
        1 for record in records if record.url.endswith("img0.jpg"))
    assert engine.stats.failed == expected_failures
    assert engine.stats.completed == len(records) - expected_failures
    assert engine.stats.submitted == len(records)
