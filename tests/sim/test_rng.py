"""Tests for seeded random streams."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import OutOfDomain
from repro.sim.rng import Lottery, RandomStreams, Stream


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


# -- the fixed-weight lottery ---------------------------------------------------

#: weights a lottery accepts: 0 (never wins), small and large floats and
#: small ints, 1 to 20 of them, with a positive total
WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-9, 1e6), st.integers(0, 50)),
    min_size=1, max_size=20).filter(lambda weights: sum(weights) > 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(weights=WEIGHTS, seed=st.integers(0, 2 ** 32))
def test_lottery_draws_what_weighted_choice_draws(weights, seed):
    """For the same stream state, draw for draw, and in a batch."""
    items = [f"item{index}" for index in range(len(weights))]
    lottery = Lottery(items, weights)
    scan, bisected = Stream(seed), Stream(seed)
    expected = [scan.weighted_choice(items, weights) for _ in range(64)]
    assert [lottery.draw(bisected) for _ in range(64)] == expected
    assert lottery.draws(Stream(seed), 64) == expected
    # both left the stream at the same place
    assert scan.random() == bisected.random()


class FixedTicket:
    """A generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("weights, u", [
    # a ticket at the total: past every running sum
    ([1.0, 2.0, 0.0], 1.0),
    ([0.0, 3.0], 1.0),
    # the largest uniform against sums that round below the total
    # where sum() compensates (Python 3.12)
    ([0.1] * 10, 1.0 - 2.0 ** -53),
    ([0.0, 0.0, 5.0], 0.0),
])
def test_a_ticket_at_the_rounding_edge_falls_where_the_scan_falls(weights,
                                                                  u):
    items = list(range(len(weights)))
    scan, bisected = Stream(0), Stream(0)
    scan._random = bisected._random = FixedTicket(u)
    assert Lottery(items, weights).draw(bisected) \
        == scan.weighted_choice(items, weights)


def test_lottery_refuses_what_it_cannot_draw_from():
    with pytest.raises(ValueError, match="mismatch"):
        Lottery(["a"], [1.0, 2.0])
    with pytest.raises(OutOfDomain, match="positive total"):
        Lottery(["a", "b"], [0.0, 0.0])
    # a negative weight would unsort the running sums
    with pytest.raises(OutOfDomain, match="weights=-1.0"):
        Lottery(["a", "b", "c"], [2.0, -1.0, 2.0])
    with pytest.raises(OutOfDomain, match="weights=nan"):
        Lottery(["a"], [math.nan])
