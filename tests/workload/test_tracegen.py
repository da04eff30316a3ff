"""Tests for trace generation, trace files, and burstiness analysis."""

import hashlib

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
    FIXED_JPEG_CLIENTS,
    FIXED_JPEG_IMAGES,
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


def test_shorter_trace_is_a_prefix_of_a_longer_one():
    """Bucket determinism: [0, a) is record-for-record the head of
    [0, T) at every length — including mid-bucket — and stops exactly
    where the longer trace crosses a."""
    whole = _gen().generate(30.0)
    for length in (10.0, 15.5, 0.25, 29.75, 7.0):
        prefix = _gen().generate(length)
        assert prefix == whole[:len(prefix)], f"length {length}"
        assert all(record.timestamp >= length
                   for record in whole[len(prefix):])


def test_prefixes_at_odd_lengths_nest():
    lengths = [1.7, 3.1, 3.2, 8.999, 13.0, 17.42, 20.0]
    traces = [_gen(seed=11).generate(length) for length in lengths]
    for shorter, longer in zip(traces, traces[1:]):
        assert longer[:len(shorter)] == shorter


def test_prefix_from_fresh_generator_instances():
    """No state carries between calls: a reused instance and brand-new
    ones with the same seed produce the same prefixes."""
    original = _gen(seed=7).generate(25.0)
    generator = _gen(seed=7)  # one instance, reused across calls
    reused = generator.generate(10.0)
    assert generator.generate(25.0) == original
    assert reused == _gen(seed=7).generate(10.0)
    assert reused == original[:len(reused)]


def test_prefix_holds_far_from_the_origin():
    whole = _gen(seed=3).generate(112.0)
    prefix = _gen(seed=3).generate(105.5)
    assert whole[:len(prefix)] == prefix
    assert any(record.timestamp >= 100.0 for record in prefix)


def test_iter_generate_streams_same_records_as_generate():
    generator = _gen(seed=13)
    assert list(generator.iter_generate(15.0)) \
        == generator.generate(15.0)


def test_generator_mean_rate_roughly_requested():
    records = TraceGenerator(
        seed=9, mean_rate_rps=5.8, with_daily_cycle=False,
        with_bursts=False).generate(600.0)
    assert len(records) / 600.0 == pytest.approx(5.8, rel=0.15)


def test_generator_timestamps_sorted_and_in_range():
    records = TraceGenerator(seed=2, mean_rate_rps=4.0).generate(120.0)
    times = [record.timestamp for record in records]
    assert times == sorted(times)
    assert all(0.0 <= t < 120.0 for t in times)


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
    """A private document is made once, and is the same whichever
    clients were asked for before it."""
    def universe():
        return DocumentUniverse(RandomStreams(1).stream("u"),
                                n_shared_docs=10, n_private_per_user=1,
                                shared_fraction=0.0)

    rng = RandomStreams(2).stream("draws")
    first = universe()
    alone, = first.sample_batch(["clientX"], rng)
    assert first.sample_batch(["clientX", "clientX"], rng) == [alone] * 2
    assert first.sample_batch(["clientX"], rng)[0] is alone
    second = universe()
    assert second.sample_batch(["clientY", "clientX"], rng)[1] == alone
    assert alone.url.startswith("http://clientX.example/p0.")


def test_universe_validates_shared_fraction():
    rng = RandomStreams(1).stream("u")
    with pytest.raises(ValueError):
        DocumentUniverse(rng, shared_fraction=1.5)


def test_fixed_jpeg_trace_shape():
    records = list(iter_fixed_jpeg_trace(rate_rps=20.0, n_requests=600))
    assert len(records) / records[-1].timestamp \
        == pytest.approx(20.0, rel=0.25)
    assert all(record.mime == MIME_JPEG for record in records)
    assert all(record.size_bytes == 10240 for record in records)
    assert len({record.url for record in records}) == FIXED_JPEG_IMAGES
    assert len({record.client_id for record in records}) \
        == FIXED_JPEG_CLIENTS


def test_burst_cascade_unit_mean():
    cascade = BurstCascade(RandomStreams(8).stream("b"), sigma=0.3)
    samples = [cascade.factor(t * 1.0) for t in range(0, 36000, 7)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(1.0, rel=0.25)


# -- pinned draws ---------------------------------------------------------------
#
# sha256 of whole generated traces and of a shared document universe,
# recorded before the generator's draws were restructured: a change to
# how a record is drawn must leave every record byte-identical.

def trace_digest(records):
    digest = hashlib.sha256()
    for record in records:
        digest.update(
            f"{float.hex(record.timestamp)}\t{record.client_id}\t"
            f"{record.url}\t{record.mime}\t{record.size_bytes}\t"
            f"{record.priority}\n".encode())
    return digest.hexdigest()


def browsing_universe():
    """The `stack` benchmark's fixed universe: 6000 shared documents
    from the universe stream of seed 1997."""
    return DocumentUniverse(RandomStreams(1997).stream("universe"),
                            n_shared_docs=6000, shared_fraction=0.7)


def browsing_trace(seed):
    """A whole `transend_mix` unit: 800 s at 40 rps, 2000 users, bursts
    at sigma 0.08, no daily cycle."""
    return TraceGenerator(
        seed=seed, n_users=2000, mean_rate_rps=40.0,
        universe=browsing_universe(), with_daily_cycle=False,
        with_bursts=True, burst_sigma=0.08).generate(800.0)


BROWSING_DIGESTS = {
    1997: "0b71013017f000f193aafaaa8d1805a942e7a99e3f312d0ec1bd63e8b4179813",
    2026: "258e2465fffc440ef353c3029433cc9a96c90e30cfc4e82ab1f3c734820689a6",
}


@pytest.mark.parametrize("seed", sorted(BROWSING_DIGESTS))
def test_browsing_trace_draws_are_pinned(seed):
    assert trace_digest(browsing_trace(seed)) == BROWSING_DIGESTS[seed]


def test_shared_universe_draws_are_pinned():
    digest = hashlib.sha256()
    for document in browsing_universe().shared_docs:
        digest.update(f"{document.url}\t{document.mime}\t"
                      f"{document.size_bytes}\n".encode())
    assert digest.hexdigest() == \
        "a06cdd64ba2608850adf25005bc626484de86770956915b4fbfcbc7266ce731d"


def test_default_and_harmonic_generators_are_pinned():
    """The default universe (20000 documents, daily cycle on) and the
    alpha = 1 branch of the shared-rank inversion."""
    default = TraceGenerator(seed=5, mean_rate_rps=8.0).generate(120.0)
    harmonic = TraceGenerator(
        seed=6, mean_rate_rps=20.0, universe=DocumentUniverse(
            RandomStreams(6).stream("universe"), n_shared_docs=500,
            n_private_per_user=30, zipf_alpha=1.0)).generate(60.0)
    assert (trace_digest(default), trace_digest(harmonic)) == (
        "9a0229a9cf42b16eb0507ec437d65d25dac224eb734635d9d59bc554cf2333be",
        "7e87ae6766ec6fa7324f7a54ad3f205ea0426d19f05b42a8df8c5dbd38286931")


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
    report = burstiness_report(records)
    assert set(report) == {120.0, 30.0, 1.0}
    for scale, stats in report.items():
        assert stats["peak_rps"] >= stats["avg_rps"]
        assert stats["buckets"] >= 1
