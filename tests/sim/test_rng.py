"""Tests for seeded random streams."""

import math

import pytest

from repro.sim.rng import RandomStreams, Stream


def test_same_seed_same_sequence():
    a = RandomStreams(42).stream("workload")
    b = RandomStreams(42).stream("workload")
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_different_names_independent():
    streams = RandomStreams(42)
    first = [streams.stream("one").random() for _ in range(10)]
    second = [streams.stream("two").random() for _ in range(10)]
    assert first != second


def test_stream_is_cached_per_name():
    streams = RandomStreams(7)
    assert streams.stream("x") is streams.stream("x")
    assert streams["x"] is streams.stream("x")


def test_adding_stream_does_not_perturb_existing():
    """Draw order in one stream must be independent of other streams."""
    lone = RandomStreams(42)
    seq_alone = [lone.stream("target").random() for _ in range(10)]

    busy = RandomStreams(42)
    busy.stream("noise").random()
    seq_with_noise = [busy.stream("target").random() for _ in range(10)]
    assert seq_alone == seq_with_noise


def test_exponential_mean_roughly_correct():
    stream = RandomStreams(1).stream("exp")
    n = 20000
    mean = sum(stream.exponential(5.0) for _ in range(n)) / n
    assert mean == pytest.approx(5.0, rel=0.1)


def test_exponential_rejects_nonpositive_mean():
    stream = RandomStreams(1).stream("exp")
    with pytest.raises(ValueError):
        stream.exponential(0.0)


def test_lognormal_mean_targets_arithmetic_mean():
    stream = RandomStreams(1).stream("ln")
    n = 50000
    target = 3428.0  # the paper's mean GIF size
    mean = sum(stream.lognormal_mean(target, 1.2) for _ in range(n)) / n
    assert mean == pytest.approx(target, rel=0.1)


def test_pareto_bounded_below():
    stream = RandomStreams(1).stream("pareto")
    values = [stream.pareto(1.5, 0.1) for _ in range(1000)]
    assert min(values) >= 0.1


def test_zipf_rank_in_range_and_skewed():
    stream = RandomStreams(1).stream("zipf")
    n = 1000
    ranks = [stream.zipf_rank(n) for _ in range(20000)]
    assert all(0 <= r < n for r in ranks)
    # rank 0 must be much more popular than median ranks
    head = sum(1 for r in ranks if r < 10)
    tail = sum(1 for r in ranks if 490 <= r < 510)
    assert head > 5 * max(tail, 1)


def test_weighted_choice_respects_weights():
    stream = RandomStreams(1).stream("lottery")
    picks = [
        stream.weighted_choice(["a", "b"], [9.0, 1.0]) for _ in range(10000)
    ]
    share_a = picks.count("a") / len(picks)
    assert share_a == pytest.approx(0.9, abs=0.03)


def test_weighted_choice_validates_inputs():
    stream = RandomStreams(1).stream("lottery")
    with pytest.raises(ValueError):
        stream.weighted_choice(["a"], [1.0, 2.0])
    with pytest.raises(ValueError):
        stream.weighted_choice(["a", "b"], [0.0, 0.0])
