"""Tests for hot upgrades and the utility (control) network."""

import pytest

from repro.chaos.campaign import (UPGRADE_HOLD_S, UPGRADE_SETTLE_S, Faults,
                                  RollingUpgrade)
from repro.core.config import SNSConfig
from repro.sim.kernel import Environment
from repro.sim.network import MBPS, Network
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from tests.core.conftest import fast_config, make_fabric, make_record


# -- utility network (the Section 4.6 remedy) ----------------------------------

def test_utility_network_carries_control_traffic():
    env = Environment()
    network = Network(env, bandwidth_bps=1000.0)
    utility = network.add_utility_network()
    network.transfer_delay(100, control=True)
    assert utility.bytes_sent == 100
    assert network.san.bytes_sent == 0
    network.transfer_delay(100)  # data still rides the SAN
    assert network.san.bytes_sent == 100


def test_utility_network_cannot_be_added_twice():
    env = Environment()
    network = Network(env)
    network.add_utility_network()
    with pytest.raises(ValueError):
        network.add_utility_network()


def test_saturated_san_does_not_drop_beacons_with_utility_net():
    """Data-plane saturation no longer kills control datagrams."""
    env = Environment()
    network = Network(env, bandwidth_bps=1000.0)
    network.add_utility_network()

    def hammer(env):
        for _ in range(100):
            network.san.reserve(300)
            yield env.timeout(0.05)

    env.process(hammer(env))
    env.run()
    assert network.san.utilization() > 1.0
    assert network.multicast_drop_probability() == 0.0


def test_saturating_the_utility_network_itself_still_drops():
    env = Environment()
    network = Network(env, bandwidth_bps=1e9)
    network.add_utility_network()   # 10 Mb/s: 1.25 MB/s

    def hammer(env):
        for _ in range(100):
            network.transfer_delay(100_000, control=True)   # 2 MB/s
            yield env.timeout(0.05)

    env.process(hammer(env))
    env.run()
    assert network.multicast_drop_probability() > 0.0


# -- hot upgrades ---------------------------------------------------------------------

def test_upgrade_single_worker_node_respawns_elsewhere():
    fabric = make_fabric(n_nodes=10)
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    victim = fabric.alive_workers()[0]
    engine = PlaybackEngine(fabric.cluster.env, fabric.submit,
                            rng=RandomStreams(1).stream("pb"),
                            timeout_s=15.0)
    pool = [make_record(i) for i in range(20)]
    fabric.cluster.env.process(engine.constant_rate(15.0, 30.0, pool))
    faults = Faults(fabric)
    faults.arm((RollingUpgrade(at=2.0, nodes=("worker:0",)),))
    fabric.cluster.run(until=2.0 + UPGRADE_HOLD_S / 2)
    assert not victim.alive and not victim.node.up
    fabric.cluster.run(until=50.0)
    assert victim.node.up
    # service never stopped
    assert len(engine.completed()) > 0.9 * len(engine.outcomes)
    assert [(record.kind, record.target) for record in faults.timeline] \
        == [("upgrade", victim.node.name), ("kill", victim.name)]


def test_rolling_upgrade_whole_cluster_keeps_service_up():
    """The HotBot-move property: every dedicated node rebooted in turn,
    service continuously available."""
    fabric = make_fabric(n_nodes=8)
    fabric.boot(n_frontends=2, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    engine = PlaybackEngine(fabric.cluster.env, fabric.submit,
                            rng=RandomStreams(2).stream("pb"),
                            timeout_s=20.0)
    pool = [make_record(i) for i in range(20)]
    fabric.cluster.env.process(engine.constant_rate(10.0, 150.0, pool))
    nodes = tuple(node.name for node in fabric.cluster.dedicated_nodes)
    upgrade = RollingUpgrade(at=2.0, nodes=nodes)
    assert upgrade.heals_at == 2.0 + len(nodes) * (UPGRADE_HOLD_S
                                                   + UPGRADE_SETTLE_S)
    faults = Faults(fabric)
    faults.arm((upgrade,))
    fabric.cluster.run(until=220.0)
    assert all(node.up for node in fabric.cluster.dedicated_nodes)
    assert [record.target for record in faults.timeline
            if record.kind == "upgrade"] == list(nodes)
    total = len(engine.outcomes)
    assert total > 0
    assert len(engine.completed()) > 0.85 * total
    # the whole stack survived (manager possibly restarted by peers)
    assert fabric.manager.alive
    assert fabric.alive_frontends()
    assert fabric.alive_workers("test-worker")


@pytest.mark.parametrize("nodes", [(), ("node1", "worker:x")],
                         ids=["no-node", "bad-spec"])
def test_upgrade_requires_a_node(nodes):
    faults = Faults(make_fabric())
    with pytest.raises(ValueError) as raised:
        faults.arm((RollingUpgrade(at=5.0, nodes=nodes),))
    assert "RollingUpgrade" in str(raised.value)


def test_monitor_maintenance_suppresses_pages():
    fabric = make_fabric(n_nodes=8)
    fabric.boot(n_frontends=0, initial_workers={"test-worker": 1})
    monitor = fabric.monitor
    fabric.cluster.run(until=3.0)
    worker = fabric.alive_workers()[0]
    monitor.set_maintenance(worker.name, True)
    worker.kill()
    fabric.cluster.run(until=15.0)
    paged = {alert.component for alert in monitor.pages()}
    assert worker.name not in paged
    assert "mm" in monitor.render()
    # clearing maintenance re-arms the watchdog with a fresh clock
    monitor.set_maintenance(worker.name, False)
    fabric.cluster.run(until=25.0)
    paged = {alert.component for alert in monitor.pages()}
    assert worker.name in paged
