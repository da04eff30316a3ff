"""Tests for multicast groups and reliable channels."""

import pytest

from repro.sim.cluster import Cluster
from repro.sim.kernel import Environment, Interrupt
from repro.sim.multicast import MAILBOX_CAPACITY, MulticastBus, MulticastGroup
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.transport import Channel, ChannelClosed


def make_group(bandwidth=1e9):
    env = Environment()
    network = Network(env, bandwidth_bps=bandwidth)
    rng = RandomStreams(1).stream("mcast")
    return env, network, MulticastGroup(env, network, "beacons", rng)


# -- multicast ---------------------------------------------------------------

def test_publish_reaches_all_subscribers():
    env, network, group = make_group()
    alpha = group.subscribe("alpha")
    beta = group.subscribe("beta")
    group.publish({"kind": "beacon"})

    def drain(env, sub):
        message = yield sub.get()
        return message

    got_a = env.process(drain(env, alpha))
    got_b = env.process(drain(env, beta))
    env.run()
    assert got_a.value == {"kind": "beacon"}
    assert got_b.value == {"kind": "beacon"}
    assert group.delivered == 2


def test_publish_without_subscribers_is_noop():
    env, network, group = make_group()
    group.publish("nobody home")
    env.run()
    assert group.delivered == 0


def test_cancelled_subscription_stops_delivery():
    env, network, group = make_group()
    sub = group.subscribe("quitter")
    sub.cancel()
    group.publish("late")
    env.run()
    assert group.delivered == 0


def test_saturated_san_drops_datagrams():
    env, network, group = make_group(bandwidth=1000.0)
    sub = group.subscribe("listener")
    delivered_count = []

    def hammer(env):
        # Saturate the SAN with data traffic, then beacon repeatedly.
        for _ in range(200):
            network.san.reserve(300)
            group.publish("beacon", size_bytes=50)
            yield env.timeout(0.05)

    env.process(hammer(env))
    env.run()
    assert group.dropped > 0
    assert group.loss_rate > 0.3


def test_idle_san_drops_nothing():
    env, network, group = make_group()
    sub = group.subscribe("listener")

    def beacons(env):
        for _ in range(100):
            group.publish("beacon", size_bytes=50)
            yield env.timeout(0.5)

    env.process(beacons(env))
    env.run()
    assert group.dropped == 0
    assert group.delivered == 100


def test_mailbox_overflow_counts_as_drop():
    env = Environment()
    network = Network(env, bandwidth_bps=1e9)
    rng = RandomStreams(1).stream("m")
    group = MulticastGroup(env, network, "g", rng)
    group.subscribe("slow")  # never drains
    for _ in range(MAILBOX_CAPACITY + 3):
        group.publish("x")
    env.run()
    assert group.delivered == MAILBOX_CAPACITY == 1024
    assert group.dropped == 3


def test_bus_caches_groups():
    cluster = Cluster()
    bus = cluster.multicast
    assert bus.group("beacons") is bus.group("beacons")
    assert bus.group("beacons") is not bus.group("monitor")


# -- transport ------------------------------------------------------------------

def test_channel_round_trip():
    env = Environment()
    network = Network(env, bandwidth_bps=1e9)
    channel = Channel(env, network, "fe0", "manager")
    fe, mgr = channel.a, channel.b
    log = []

    def manager(env):
        message = yield mgr.recv()
        log.append(message)
        mgr.send({"reply-to": message["id"]})

    def frontend(env):
        fe.send({"id": 7, "kind": "request"})
        reply = yield fe.recv()
        log.append(reply)

    env.process(manager(env))
    env.process(frontend(env))
    env.run()
    assert log == [{"id": 7, "kind": "request"}, {"reply-to": 7}]


def test_channel_messages_fifo():
    env = Environment()
    network = Network(env, bandwidth_bps=1e9)
    channel = Channel(env, network, "a", "b")
    a, b = channel.a, channel.b
    got = []

    def receiver(env):
        for _ in range(3):
            got.append((yield b.recv()))

    def sender(env):
        for item in (1, 2, 3):
            a.send(item)
        yield env.timeout(0)

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert got == [1, 2, 3]


def test_close_fails_pending_recv():
    env = Environment()
    network = Network(env, bandwidth_bps=1e9)
    channel = Channel(env, network, "a", "b")
    a, b = channel.a, channel.b
    outcome = []

    def receiver(env):
        try:
            yield b.recv()
        except ChannelClosed:
            outcome.append(("closed-at", env.now))

    def closer(env):
        yield env.timeout(3.0)
        a.channel.close()

    env.process(receiver(env))
    env.process(closer(env))
    env.run()
    assert outcome == [("closed-at", 3.0)]


def test_send_on_closed_channel_raises():
    env = Environment()
    network = Network(env, bandwidth_bps=1e9)
    channel = Channel(env, network, "a", "b")
    a, b = channel.a, channel.b
    a.channel.close()
    with pytest.raises(ChannelClosed):
        a.send("too late")


def test_delivered_messages_drain_before_close_error():
    env = Environment()
    network = Network(env, bandwidth_bps=1e9)
    channel = Channel(env, network, "a", "b")
    a, b = channel.a, channel.b
    got = []

    def scenario(env):
        a.send("last words")
        yield env.timeout(1.0)  # let it arrive
        a.channel.close()
        got.append((yield b.recv()))
        try:
            yield b.recv()
        except ChannelClosed:
            got.append("closed")

    env.process(scenario(env))
    env.run()
    assert got == ["last words", "closed"]


def test_in_flight_message_lost_on_close():
    env = Environment()
    network = Network(env, bandwidth_bps=100.0)
    channel = Channel(env, network, "a", "b")
    a, b = channel.a, channel.b
    got = []

    def scenario(env):
        a.send("doomed", size_bytes=100)  # ~2 s in flight
        a.channel.close()
        try:
            yield b.recv()
        except ChannelClosed:
            got.append("closed")

    env.process(scenario(env))
    env.run()
    assert got == ["closed"]


def test_a_receive_let_go_in_its_grant_instant_hands_the_message_on():
    """A message already in the inbox is granted at once; a receiver
    interrupted before that grant is processed leaves it for the next
    receive."""
    env = Environment()
    network = Network(env, bandwidth_bps=1e9)
    channel = Channel(env, network, "a", "b")
    a, b = channel.a, channel.b
    got = []

    def victim(env):
        try:
            got.append((yield b.recv()))
        except Interrupt:
            got.append("interrupted")

    def later(env):
        got.append(((yield b.recv()), env.now))

    def scenario(env):
        a.send("msg")
        yield env.timeout(1.0)  # it has arrived
        receiver = env.process(victim(env))
        yield env.timeout(0)    # the victim runs and is granted "msg"
        receiver.interrupt()    # URGENT: before the grant is processed
        yield env.timeout(1.0)
        env.process(later(env))

    env.process(scenario(env))
    env.run()
    assert got == ["interrupted", ("msg", 2.0)]


def test_connect_pays_setup_cost():
    env = Environment()
    network = Network(env, bandwidth_bps=1e9)

    def proc(env):
        channel = yield from Channel.connect(env, network, "a", "b")
        return (env.now, channel.open)

    when, is_open = env.run(until=env.process(proc(env)))
    assert when == pytest.approx(0.015)
    assert is_open


# -- cluster -------------------------------------------------------------------

def test_cluster_free_node_prefers_dedicated():
    cluster = Cluster()
    cluster.add_nodes(2, prefix="ded")
    cluster.add_nodes(2, prefix="ovf", overflow=True)
    cluster.nodes["ded0"].attach("fe")
    free = cluster.free_node()
    assert free is cluster.nodes["ded1"]
    cluster.nodes["ded1"].attach("w")
    assert cluster.free_node() is None
    assert cluster.free_node(include_overflow=True).overflow


def test_cluster_duplicate_node_rejected():
    cluster = Cluster()
    cluster.add_node("n0")
    with pytest.raises(Exception):
        cluster.add_node("n0")


def test_cluster_least_loaded_node():
    cluster = Cluster()
    a = cluster.add_node("a")
    b = cluster.add_node("b")
    a.attach("x")
    a.attach("y")
    b.attach("z")
    assert cluster.least_loaded_node(None) is b


def test_cluster_deterministic_given_seed():
    def run(seed):
        cluster = Cluster(seed=seed)
        stream = cluster.streams.stream("s")
        return [stream.random() for _ in range(5)]

    assert run(10) == run(10)
    assert run(10) != run(11)
