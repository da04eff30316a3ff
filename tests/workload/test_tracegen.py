"""Tests for trace generation, trace files, and burstiness analysis."""

import pytest

from repro.tacc.content import MIME_JPEG
from repro.workload.burstiness import (
    bucket_counts,
    burstiness_report,
    index_of_dispersion,
    overflow_line_for_fraction,
    utilization_line,
)
from repro.workload.trace import TraceRecord, load_trace, save_trace
from repro.workload.tracegen import (
    BurstCascade,
    DocumentUniverse,
    TraceGenerator,
    daily_cycle_factor,
    iter_fixed_jpeg_trace,
)
from repro.sim.rng import RandomStreams


# -- trace records -----------------------------------------------------------

def test_trace_record_roundtrips_through_line():
    record = TraceRecord(12.5, "client3", "http://a/b.gif",
                         "image/gif", 2048)
    assert TraceRecord.from_line(record.to_line()) == record


def test_trace_file_roundtrip(tmp_path):
    records = [
        TraceRecord(float(index), f"c{index}", f"http://x/{index}.html",
                    "text/html", 100 + index)
        for index in range(10)
    ]
    path = str(tmp_path / "trace.tsv")
    assert save_trace(records, path) == 10
    assert load_trace(path) == records


def test_malformed_trace_line_rejected():
    with pytest.raises(ValueError):
        TraceRecord.from_line("only\tthree\tfields")


# -- generator ----------------------------------------------------------------

def test_generator_deterministic_given_seed():
    first = TraceGenerator(seed=5, mean_rate_rps=3.0).generate(60.0)
    second = TraceGenerator(seed=5, mean_rate_rps=3.0).generate(60.0)
    assert first == second
    third = TraceGenerator(seed=6, mean_rate_rps=3.0).generate(60.0)
    assert first != third


def _gen(seed=5, rate=8.0):
    return TraceGenerator(seed=seed, mean_rate_rps=rate)


def test_slice_concatenation_reproduces_single_call():
    """The time-shard handoff contract: [0, T) equals [0, t) + [t, T)
    record-for-record, at every split point — including mid-bucket."""
    whole = _gen().generate(30.0)
    for split in (10.0, 15.5, 0.25, 29.75, 7.0):
        left = _gen().generate(split)
        right = _gen().generate(30.0 - split, start_s=split)
        assert left + right == whole, f"split at {split}"


def test_slice_many_odd_widths_tile_the_trace():
    whole = _gen(seed=11).generate(20.0)
    edges = [0.0, 1.7, 3.1, 3.2, 8.999, 13.0, 17.42, 20.0]
    tiled = []
    for start, end in zip(edges, edges[1:]):
        tiled.extend(_gen(seed=11).generate(end - start, start_s=start))
    assert tiled == whole


def test_slice_from_fresh_generator_instances():
    """Windows must be regenerable with zero carried state: a brand-new
    generator asked for [t, T) yields what the original produced there.
    This is what lets each replay shard rebuild its window from the
    spec alone, with no RNG-position handoff."""
    original = _gen(seed=7).generate(25.0)
    generator = _gen(seed=7)  # one instance, reused across windows
    reused = (generator.generate(10.0)
              + generator.generate(15.0, start_s=10.0))
    fresh = (_gen(seed=7).generate(10.0)
             + _gen(seed=7).generate(15.0, start_s=10.0))
    assert reused == original
    assert fresh == original


def test_slice_with_nonzero_origin_offsets():
    whole = _gen(seed=3).generate(12.0, start_s=100.0)
    parts = (_gen(seed=3).generate(5.5, start_s=100.0)
             + _gen(seed=3).generate(6.5, start_s=105.5))
    assert parts == whole


def test_iter_generate_streams_same_records_as_generate():
    generator = _gen(seed=13)
    assert list(generator.iter_generate(15.0, start_s=4.0)) \
        == generator.generate(15.0, start_s=4.0)


def test_generator_mean_rate_roughly_requested():
    records = TraceGenerator(
        seed=9, mean_rate_rps=5.8, with_daily_cycle=False,
        with_bursts=False).generate(600.0)
    assert len(records) / 600.0 == pytest.approx(5.8, rel=0.15)


def test_generator_timestamps_sorted_and_in_range():
    records = TraceGenerator(seed=2, mean_rate_rps=4.0).generate(
        120.0, start_s=100.0)
    times = [record.timestamp for record in records]
    assert times == sorted(times)
    assert all(100.0 <= t < 220.0 for t in times)


def test_daily_cycle_unit_mean_and_trough():
    factors = [daily_cycle_factor(hour * 3600.0) for hour in range(24)]
    assert sum(factors) / 24 == pytest.approx(1.0, abs=0.01)
    assert min(factors) == factors[7] or min(factors) == factors[8]


def test_bursty_trace_more_dispersed_than_poisson():
    """The headline burstiness property: with the cascade on, bucket
    counts are over-dispersed relative to Poisson at coarse scales."""
    smooth = TraceGenerator(seed=3, mean_rate_rps=5.0,
                            with_daily_cycle=False,
                            with_bursts=False).generate(1800.0)
    bursty = TraceGenerator(seed=3, mean_rate_rps=5.0,
                            with_daily_cycle=False,
                            with_bursts=True).generate(1800.0)
    dispersion_smooth = index_of_dispersion(bucket_counts(smooth, 30.0))
    dispersion_bursty = index_of_dispersion(bucket_counts(bursty, 30.0))
    assert dispersion_smooth < 2.5
    assert dispersion_bursty > 2 * dispersion_smooth


def test_burst_dispersion_grows_with_aggregation():
    """Self-similar-ish traffic stays over-dispersed as buckets widen,
    unlike Poisson whose dispersion stays ~1."""
    bursty = TraceGenerator(seed=4, mean_rate_rps=5.0,
                            with_daily_cycle=False,
                            with_bursts=True).generate(3600.0)
    fine = bucket_counts(bursty, 1.0)
    coarse = bucket_counts(bursty, 30.0)
    assert index_of_dispersion(coarse) > index_of_dispersion(fine)


def test_universe_shared_and_private_documents():
    rng = RandomStreams(1).stream("u")
    universe = DocumentUniverse(rng, n_shared_docs=100,
                                n_private_per_user=10,
                                shared_fraction=0.5)
    shared_urls = {doc.url for doc in universe.shared_docs}
    docs = universe.sample_batch(["client1"] * 500, rng)
    shared_count = sum(1 for doc in docs if doc.url in shared_urls)
    assert 150 < shared_count < 350  # ~50% shared
    private = [doc for doc in docs if doc.url not in shared_urls]
    assert all("client1" in doc.url for doc in private)


def test_universe_private_docs_stable():
    rng = RandomStreams(1).stream("u")
    universe = DocumentUniverse(rng, n_shared_docs=10)
    first = universe._private_doc("clientX", 3)
    second = universe._private_doc("clientX", 3)
    assert first is second


def test_universe_validates_shared_fraction():
    rng = RandomStreams(1).stream("u")
    with pytest.raises(ValueError):
        DocumentUniverse(rng, shared_fraction=1.5)


def test_fixed_jpeg_trace_shape():
    records = list(iter_fixed_jpeg_trace(rate_rps=20.0, n_requests=600,
                                         n_images=5,
                                         image_size_bytes=10240))
    assert len(records) / records[-1].timestamp \
        == pytest.approx(20.0, rel=0.25)
    assert all(record.mime == MIME_JPEG for record in records)
    assert all(record.size_bytes == 10240 for record in records)
    assert len({record.url for record in records}) == 5


def test_burst_cascade_unit_mean():
    cascade = BurstCascade(RandomStreams(8).stream("b"), sigma=0.3)
    samples = [cascade.factor(t * 1.0) for t in range(0, 36000, 7)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(1.0, rel=0.25)


# -- burstiness analysis ----------------------------------------------------------

def make_records(rates, bucket_s=1.0):
    """Deterministic trace with `rates[i]` requests in second i."""
    records = []
    for second, rate in enumerate(rates):
        for k in range(rate):
            records.append(TraceRecord(
                second * bucket_s + k / (rate + 1), "c", "u", "m", 1))
    return records


def test_bucket_counts_basic():
    records = make_records([3, 0, 5])
    assert bucket_counts(records, 1.0) == [3, 0, 5]
    assert bucket_counts([], 1.0) == []
    with pytest.raises(ValueError):
        bucket_counts(records, 0.0)


def test_utilization_line_full_is_peak():
    records = make_records([2, 4, 6, 8])
    line = utilization_line(bucket_counts(records, 1.0), 1.0, 1.0)
    assert line == pytest.approx(8.0, abs=0.1)


def test_utilization_line_half_traffic():
    counts = [10, 10, 10, 10]
    line = utilization_line(counts, 1.0, 0.5)
    assert line == pytest.approx(5.0, abs=0.1)


def test_overflow_line_quantile():
    counts = list(range(1, 101))  # rates 1..100
    line = overflow_line_for_fraction(counts, 1.0, 0.10)
    assert line == pytest.approx(90.0, abs=1.0)
    assert overflow_line_for_fraction(counts, 1.0, 0.0) == 100.0


def test_analysis_input_validation():
    with pytest.raises(ValueError):
        utilization_line([1], 1.0, 0.0)
    with pytest.raises(ValueError):
        overflow_line_for_fraction([1], 1.0, 1.5)


def test_burstiness_report_scales():
    records = TraceGenerator(seed=11, mean_rate_rps=6.0).generate(600.0)
    report = burstiness_report(records, scales_s=(120.0, 30.0, 1.0))
    assert set(report) == {120.0, 30.0, 1.0}
    for scale, stats in report.items():
        assert stats["peak_rps"] >= stats["avg_rps"]
        assert stats["buckets"] >= 1
