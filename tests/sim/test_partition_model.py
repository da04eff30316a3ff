"""The declarative SAN-partition model (splits, one-way cuts, heal).

The paper's testbed treated the SAN as a perfect fabric; these tests
pin down the semantics of the fault class it never modelled: group
splits (symmetric), asymmetric one-way cuts, timed windows with
absolute heal times, instant heal-all, and how the message and
placement layers consult the model.
"""

from repro.sim.cluster import Cluster
from repro.sim.kernel import Environment
from repro.sim.network import Network, PartitionState


def test_split_blocks_across_groups_only():
    env = Environment()
    state = PartitionState(env)
    state.split({"node0": "a", "node1": "a", "node2": "b"})
    # within a group: fine; across groups: blocked both ways
    assert state.node_reachable("node0", "node1")
    assert not state.node_reachable("node0", "node2")
    assert not state.node_reachable("node2", "node0")
    # nodes absent from the map form the implicit default group
    assert state.node_reachable("node5", "node6")
    assert not state.node_reachable("node5", "node0")
    # local delivery never crosses the SAN
    assert state.node_reachable("node2", "node2")


def test_one_way_cut_is_asymmetric():
    env = Environment()
    state = PartitionState(env)
    state.one_way("node0", "node1")
    assert not state.node_reachable("node0", "node1")
    assert state.node_reachable("node1", "node0")  # reverse stays up


def test_windows_expire_at_their_declared_end():
    env = Environment()
    state = PartitionState(env)
    state.split({"node0": "x"}, duration_s=5.0)
    state.one_way("node1", "node2", duration_s=8.0)

    def probe():
        yield env.timeout(4.0)
        assert not state.node_reachable("node0", "node1")
        yield env.timeout(2.0)  # t=6: split healed, cut still active
        assert state.node_reachable("node0", "node1")
        assert not state.node_reachable("node1", "node2")
        yield env.timeout(3.0)  # t=9: everything healed
        assert state.node_reachable("node1", "node2")

    env.process(probe())
    env.run(until=10.0)


def test_resolver_maps_components_and_unknowns_pass():
    env = Environment()
    homes = {"alice": "node0", "bob": "node1"}
    state = PartitionState(env, homes.get)
    state.split({"node1": "x"})
    assert not state.reachable("alice", "bob")
    assert state.reachable("alice", "alice")
    # unresolvable components are treated as reachable, not blocked
    assert state.reachable("alice", "stranger")


def test_install_partitions_is_idempotent_and_lazy():
    env = Environment()
    network = Network(env)
    assert network.partitions is None  # fault-free runs pay nothing
    state = network.install_partitions()
    assert network.install_partitions() is state
    resolver = {"c": "node0"}.get
    assert network.install_partitions(resolver) is state
    assert state._resolver is resolver  # late resolver still lands


def test_multicast_publish_counts_partitioned_subscribers():
    cluster = Cluster(seed=3)
    cluster.add_nodes(2)
    homes = {"alice": "node0", "bob": "node1", "carol": "node0"}
    state = cluster.network.install_partitions(homes.get)
    group = cluster.multicast.group("g")
    bob = group.subscribe("bob")
    carol = group.subscribe("carol")
    state.split({"node1": "cut"})
    group.publish("hello", sender="alice")
    cluster.run(until=0.5)
    assert group.dropped == 1
    assert state.multicast_blocked == 1
    assert carol.queue.length == 1  # same-group subscriber delivered
    assert bob.queue.length == 0


def test_placement_excludes_quarantined_and_partitioned_nodes():
    """Satellite of the consensus work: spawn placement must never pick
    a node the placer cannot talk to (either direction) or one pulled
    from rotation by flap quarantine."""
    cluster = Cluster(seed=3)
    cluster.add_nodes(4)
    state = cluster.install_partitions()
    cluster.nodes["node1"].quarantine()
    state.split({"node2": "isolated"}, duration_s=5.0)
    # node3 answers, but the placer's traffic to it is blackholed: the
    # bidirectional rule excludes it too
    state.one_way("node0", "node3", duration_s=5.0)
    picked = cluster.least_loaded_node(reachable_from="node0")
    assert picked.name == "node0"
    free = cluster.free_node(reachable_from="node0")
    assert free is not None and free.name == "node0"
    cluster.run(until=6.0)
    # once the windows end every up node is placeable again
    assert state.node_reachable("node0", "node2")
    assert state.node_reachable("node0", "node3")
