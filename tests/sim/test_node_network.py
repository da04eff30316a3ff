"""Tests for node CPU model, SAN links, and utilization metering."""

import math

import pytest

from repro.sim.kernel import Environment
from repro.sim.network import (MBPS, AccessLink, Link, Network,
                               UtilizationMeter)
from repro.sim.node import Node, NodeDown


# -- Node -------------------------------------------------------------------

def test_compute_takes_work_over_speed():
    env = Environment()
    node = Node(env, "n0", speed=2.0)
    done = []

    def proc(env):
        yield from node.compute(4.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [2.0]  # 4 ref-seconds on a 2x node


def test_single_cpu_serializes_work():
    env = Environment()
    node = Node(env, "n0", cpus=1)
    finish = []

    def proc(env, tag):
        yield from node.compute(3.0)
        finish.append((tag, env.now))

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert finish == [("a", 3.0), ("b", 6.0)]


def test_dual_cpu_runs_two_in_parallel():
    env = Environment()
    node = Node(env, "n0", cpus=2)
    finish = []

    def proc(env, tag):
        yield from node.compute(3.0)
        finish.append((tag, env.now))

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert finish == [("a", 3.0), ("b", 3.0), ("c", 6.0)]


def test_compute_on_down_node_raises():
    env = Environment()
    node = Node(env, "n0")
    node.crash()

    def proc(env):
        try:
            yield from node.compute(1.0)
        except NodeDown:
            return "down"

    assert env.run(until=env.process(proc(env))) == "down"


def test_node_attach_detach_and_is_free():
    env = Environment()
    node = Node(env, "n0")
    assert node.is_free
    node.attach("distiller-1")
    assert not node.is_free
    node.detach("distiller-1")
    assert node.is_free
    node.crash()
    assert not node.is_free
    node.restart()
    assert node.is_free


def test_utilization_accounts_busy_time():
    env = Environment()
    node = Node(env, "n0")

    def proc(env):
        yield from node.compute(5.0)

    env.process(proc(env))
    env.run()
    assert node.busy_time == pytest.approx(5.0)


def test_node_validates_parameters():
    env = Environment()
    with pytest.raises(ValueError):
        Node(env, "bad", cpus=0)
    with pytest.raises(ValueError):
        Node(env, "bad", speed=0.0)


# -- Link -------------------------------------------------------------------

def test_link_delay_is_latency_plus_transmission():
    env = Environment()
    link = Link(env, "l", bandwidth_bps=1000.0, latency_s=0.5)
    assert link.reserve(500) == pytest.approx(0.5 + 0.5)


def test_link_queues_behind_in_flight_traffic():
    env = Environment()
    link = Link(env, "l", bandwidth_bps=1000.0, latency_s=0.0)
    first = link.reserve(1000)   # occupies pipe for 1 s
    second = link.reserve(1000)  # must wait behind the first
    assert first == pytest.approx(1.0)
    assert second == pytest.approx(2.0)
    assert link.backlog_s == pytest.approx(2.0)


def test_link_pipe_drains_over_time():
    env = Environment()
    link = Link(env, "l", bandwidth_bps=1000.0, latency_s=0.0)
    link.reserve(1000)

    def proc(env):
        yield env.timeout(5.0)
        return link.reserve(1000)

    delay = env.run(until=env.process(proc(env)))
    assert delay == pytest.approx(1.0)  # pipe idle again


def test_link_utilization_rises_with_offered_load():
    env = Environment()
    link = Link(env, "l", bandwidth_bps=1000.0, latency_s=0.0)

    def offered(env):
        for _ in range(50):
            link.reserve(100)  # 100 B each -> 5000 B over 5 s = full rate
            yield env.timeout(0.1)

    env.process(offered(env))
    env.run()
    assert link.utilization() == pytest.approx(1.0, rel=0.25)


def test_link_validates_parameters():
    env = Environment()
    with pytest.raises(ValueError):
        Link(env, "l", bandwidth_bps=0.0)
    with pytest.raises(ValueError):
        Link(env, "l", bandwidth_bps=1.0, latency_s=-1.0)
    link = Link(env, "l", bandwidth_bps=1.0)
    with pytest.raises(ValueError):
        link.reserve(-5)


@pytest.mark.parametrize("cls", [Link, AccessLink])
@pytest.mark.parametrize("name, kwargs", [
    ("bandwidth_bps", dict(bandwidth_bps=math.nan)),
    ("bandwidth_bps", dict(bandwidth_bps=math.inf)),
    ("latency_s", dict(bandwidth_bps=1.0, latency_s=math.nan)),
    ("latency_s", dict(bandwidth_bps=1.0, latency_s=math.inf)),
])
def test_link_refuses_a_non_finite_bandwidth_or_latency(cls, name, kwargs):
    """A NaN or infinite parameter used to be accepted, and every
    reserve() then returned a NaN or infinite delay: the run aborted at
    the first Timeout or never delivered."""
    with pytest.raises(ValueError, match=f"^{name}="):
        cls(Environment(), "l", **kwargs)


# -- Network ------------------------------------------------------------------

def test_network_access_link_adds_delay():
    env = Environment()
    network = Network(env, bandwidth_bps=1e9, latency_s=0.0)
    network.add_access_link("fe0", bandwidth_bps=1000.0, latency_s=0.0)
    interior_only = network.transfer_delay(1000)
    with_access = network.transfer_delay(1000, access_link="fe0")
    assert with_access > interior_only
    assert with_access == pytest.approx(interior_only + 1.0, abs=0.01)


def test_duplicate_access_link_rejected():
    env = Environment()
    network = Network(env)
    network.add_access_link("fe0", 1000.0)
    with pytest.raises(ValueError):
        network.add_access_link("fe0", 1000.0)


def test_multicast_drop_probability_zero_when_idle():
    env = Environment()
    network = Network(env, bandwidth_bps=100 * MBPS)
    assert network.multicast_drop_probability() == 0.0


def test_multicast_drop_probability_rises_under_saturation():
    env = Environment()
    network = Network(env, bandwidth_bps=1000.0)

    def hammer(env):
        for _ in range(100):
            network.san.reserve(200)
            yield env.timeout(0.05)

    env.process(hammer(env))
    env.run()
    assert network.san.utilization() > 1.0
    assert network.multicast_drop_probability() > 0.5


# -- UtilizationMeter ---------------------------------------------------------

def test_meter_window_expires_old_traffic():
    env = Environment()
    link = Link(env, "pipe", bandwidth_bps=1e6)  # its meter: 5 s, 10 buckets
    link.reserve(5000)
    assert link._meter.rate() == pytest.approx(1000.0)

    def advance(env):
        yield env.timeout(20.0)

    env.run(until=env.process(advance(env)))
    link.reserve(0)
    assert link._meter.rate() == 0.0


def test_meter_span_is_the_bucket_count():
    """`int(window / (window / buckets))` is not `buckets` for 498 of
    these 11 741 pairs (e.g. (0.1, 11) -> 10), which silently shortened
    the window; the span is the bucket count itself."""
    env = Environment()
    accidents = 0
    for tenths in range(1, 200):
        window = tenths / 10.0
        for buckets in range(1, 60):
            meter = UtilizationMeter(env, window=window, buckets=buckets)
            assert meter._span == buckets
            accidents += int(window / meter.bucket_width) != buckets
    assert accidents == 498
    assert int(0.1 / (0.1 / 11)) == 10
