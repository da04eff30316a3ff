"""Tests for the lossy-SAN fault model (loss, duplication, jitter)."""

import pytest

from repro.sim.cluster import Cluster
from repro.sim.kernel import Environment
from repro.sim.network import (
    ANY_SCOPE,
    CHANNEL_RTO_S,
    CHANNEL_SCOPE,
    FaultWindow,
    Network,
    NetworkFaults,
)
from repro.sim.rng import RandomStreams
from repro.sim.transport import Channel


def make_faults(seed=3):
    env = Environment()
    return env, NetworkFaults(env, RandomStreams(seed).stream("nf"))


# -- windows -----------------------------------------------------------------

def test_fault_window_validation():
    with pytest.raises(ValueError):
        FaultWindow("g", 0.0, None, loss=1.5)
    with pytest.raises(ValueError):
        FaultWindow("g", 0.0, None, duplicate=-0.1)
    with pytest.raises(ValueError):
        FaultWindow("g", 0.0, None, jitter_s=-1.0)
    with pytest.raises(ValueError):
        FaultWindow("g", 10.0, 5.0)


def test_window_active_interval_is_half_open():
    window = FaultWindow("g", 5.0, 10.0, loss=0.5)
    assert not window.active_at(4.9)
    assert window.active_at(5.0)
    assert window.active_at(9.99)
    assert not window.active_at(10.0)


def test_impose_rejects_past_start():
    env, faults = make_faults()
    env.run(until=10.0)
    with pytest.raises(ValueError):
        faults.impose(loss=0.5, start=5.0)


# -- datagram fate -----------------------------------------------------------

def test_no_windows_draws_no_randomness():
    """Determinism discipline: an uninstalled or idle fault model must
    not consume RNG, so fault-free runs replay identically."""
    _, consulted = make_faults(seed=3)
    _, untouched = make_faults(seed=3)
    assert consulted.datagram_fate("anything") == (1, 0.0)
    assert consulted.channel_penalty() == 0.0
    # an expired window is as cheap as no window
    consulted.impose(scope="g", loss=0.9, duration_s=0.0)
    consulted.env.run(until=1.0)
    assert consulted.datagram_fate("g") == (1, 0.0)
    assert [consulted.rng.random() for _ in range(5)] == \
        [untouched.rng.random() for _ in range(5)]


def test_scoping_matches_group_or_any():
    env, faults = make_faults()
    faults.impose(scope="beacons", loss=1.0)
    assert faults.datagram_fate("beacons")[0] == 0
    assert faults.datagram_fate("other-group")[0] == 1
    faults.impose(scope=ANY_SCOPE, loss=1.0)
    assert faults.datagram_fate("other-group")[0] == 0


def test_loss_wins_over_duplication():
    env, faults = make_faults()
    faults.impose(scope="g", loss=1.0, duplicate=1.0, jitter_s=1.0)
    copies, extra = faults.datagram_fate("g")
    assert copies == 0
    assert extra == 0.0
    assert faults.datagrams_lost == 1
    assert faults.datagrams_duplicated == 0


def test_duplication_and_jitter():
    env, faults = make_faults()
    faults.impose(scope="g", duplicate=1.0, jitter_s=0.5)
    copies, extra = faults.datagram_fate("g")
    assert copies == 2
    assert 0.0 <= extra <= 0.5
    assert faults.datagrams_duplicated == 1
    assert faults.messages_jittered == 1


def test_channel_penalty_is_retransmit_delay_not_loss():
    env, faults = make_faults()
    faults.impose(scope=CHANNEL_SCOPE, loss=0.5)
    penalties = [faults.channel_penalty() for _ in range(200)]
    assert all(penalty >= 0.0 for penalty in penalties)
    assert any(penalty >= CHANNEL_RTO_S for penalty in penalties)
    assert faults.channel_retransmits > 0


def test_channel_penalty_total_loss_is_finite():
    """loss=1.0 must stall the connection, not hang the simulation."""
    env, faults = make_faults()
    faults.impose(scope=CHANNEL_SCOPE, loss=1.0)
    penalty = faults.channel_penalty()
    # 10 retransmits with doubling RTO: 0.2 * (2^10 - 1)
    assert penalty == pytest.approx(CHANNEL_RTO_S * 1023)


def test_fate_is_deterministic_per_seed():
    _, one = make_faults(seed=11)
    _, two = make_faults(seed=11)
    for faults in (one, two):
        faults.impose(scope="g", loss=0.3, duplicate=0.2, jitter_s=0.1)
    fates_one = [one.datagram_fate("g") for _ in range(50)]
    fates_two = [two.datagram_fate("g") for _ in range(50)]
    assert fates_one == fates_two


# -- integration: multicast and channels -------------------------------------

def test_multicast_full_loss_drops_everything():
    cluster = Cluster(seed=5)
    faults = cluster.network.install_faults(
        cluster.streams.stream("nf"))
    group = cluster.multicast.group("g")
    subscription = group.subscribe("listener")
    faults.impose(scope="g", loss=1.0)
    for _ in range(10):
        group.publish("beacon", sender="mgr")
    cluster.run(until=1.0)
    assert subscription.queue.length == 0
    assert group.fault_dropped == 10
    assert faults.datagrams_lost == 10


def test_multicast_duplication_delivers_twice():
    cluster = Cluster(seed=5)
    faults = cluster.network.install_faults(
        cluster.streams.stream("nf"))
    group = cluster.multicast.group("g")
    subscription = group.subscribe("listener")
    faults.impose(scope="g", duplicate=1.0)
    group.publish("beacon", sender="mgr")
    cluster.run(until=1.0)
    assert subscription.queue.length == 2
    assert group.fault_duplicated == 1


def test_multicast_unscoped_group_untouched():
    cluster = Cluster(seed=5)
    faults = cluster.network.install_faults(
        cluster.streams.stream("nf"))
    faults.impose(scope="lossy-group", loss=1.0)
    group = cluster.multicast.group("clean-group")
    subscription = group.subscribe("listener")
    group.publish("msg", sender="x")
    cluster.run(until=1.0)
    assert subscription.queue.length == 1


def test_channel_stays_fifo_under_jitter():
    """TCP delays but never reorders: messages sent in order arrive in
    order even when per-message jitter would have swapped them."""
    env = Environment()
    network = Network(env)
    faults = network.install_faults(RandomStreams(9).stream("nf"))
    faults.impose(scope=CHANNEL_SCOPE, jitter_s=0.2)
    channel = Channel(env, network, "a", "b")
    received = []

    def receiver():
        for _ in range(30):
            message = yield channel.b.recv()
            received.append(message)

    env.process(receiver())
    for index in range(30):
        channel.a.send(index)
    env.run(until=10.0)
    assert received == list(range(30))
    assert faults.messages_jittered > 0


def test_install_faults_idempotent():
    env = Environment()
    network = Network(env)
    first = network.install_faults(RandomStreams(1).stream("nf"))
    second = network.install_faults(RandomStreams(2).stream("other"))
    assert first is second
