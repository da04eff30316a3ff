"""Cluster assembly: nodes + SAN + multicast bus + RNG under one roof.

A :class:`Cluster` is the simulated counterpart of the paper's testbed
("15 Sun SPARC Ultra-1 workstations connected by 100 Mb/s switched
Ethernet"): a set of dedicated nodes, an optional overflow pool of
non-dedicated machines (Section 2.2.3), the interior SAN, and access
links for traffic entering or leaving the system.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.kernel import Environment
from repro.sim.multicast import MulticastBus
from repro.sim.network import MBPS, AccessLink, Network, PartitionState
from repro.sim.node import Node
from repro.sim.rng import RandomStreams


class ClusterError(Exception):
    """Cluster-level configuration or capacity errors."""


class Cluster:
    """Hardware plus shared services for one simulated installation."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        seed: int = 1997,
        san_bandwidth_bps: float = 100 * MBPS,
        san_latency_s: float = 0.0005,
    ) -> None:
        self.env = env if env is not None else Environment()
        self.streams = RandomStreams(seed)
        self.network = Network(self.env, san_bandwidth_bps, san_latency_s)
        self.multicast = MulticastBus(
            self.env, self.network, self.streams.stream("multicast"))
        self.nodes: Dict[str, Node] = {}
        if self.env.tracer is None:
            # opt-in span tracing for CLI-driven runs: the hook is only
            # armed inside repro.obs.capture_traces(); otherwise no-op.
            from repro.obs.runtime import attach_to_new_cluster
            attach_to_new_cluster(self)

    # -- topology -----------------------------------------------------------

    def add_node(self, name: str, cpus: int = 1, speed: float = 1.0,
                 overflow: bool = False, **kwargs) -> Node:
        if name in self.nodes:
            raise ClusterError(f"duplicate node {name!r}")
        node = Node(self.env, name, cpus=cpus, speed=speed,
                    overflow=overflow, **kwargs)
        self.nodes[name] = node
        return node

    def add_nodes(self, count: int, prefix: str = "node",
                  overflow: bool = False, **kwargs) -> List[Node]:
        start = len([n for n in self.nodes if n.startswith(prefix)])
        return [
            self.add_node(f"{prefix}{start + index}", overflow=overflow,
                          **kwargs)
            for index in range(count)
        ]

    def add_access_link(self, name: str,
                        bandwidth_bps: float = 100 * MBPS) -> AccessLink:
        return self.network.add_access_link(name, bandwidth_bps)

    def locate_node(self, component_name: str) -> Optional[str]:
        """Name of the node hosting ``component_name``, if any.

        This is the SAN-partition model's resolver: multicast and
        channel deliveries map component names to nodes through it to
        decide which side of a split each party sits on.
        """
        for node in self.nodes.values():
            if component_name in node.components:
                return node.name
        return None

    def install_partitions(self) -> PartitionState:
        """Attach (or return) the SAN-partition model, wired to this
        cluster's component registry."""
        return self.network.install_partitions(self.locate_node)

    # -- node selection (used by the manager when spawning workers) ----------

    @property
    def dedicated_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if not n.overflow]

    @property
    def overflow_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.overflow]

    def _placeable(self, node: Node,
                   reachable_from: Optional[str]) -> bool:
        """Is ``node`` bidirectionally reachable from the named node?

        Placement must never pick a node the placer cannot talk to: a
        worker spawned across a partition would register into the void
        and a worker the manager cannot hear from is dead weight, so
        both directions are required.
        """
        if reachable_from is None:
            return True
        partitions = self.network.partitions
        if partitions is None:
            return True
        return (partitions.node_reachable(reachable_from, node.name)
                and partitions.node_reachable(node.name, reachable_from))

    def free_node(self, include_overflow: bool = False,
                  reachable_from: Optional[str] = None) -> Optional[Node]:
        """A node with nothing running on it, dedicated pool first.

        The paper's manager "can automatically spawn a new distiller on an
        unused node"; when the dedicated pool is exhausted it "can resort
        to starting up temporary distillers on a set of overflow nodes".
        ``reachable_from`` (a node name) additionally excludes nodes
        partitioned away from the placer.
        """
        for node in self.dedicated_nodes:
            if node.is_free and self._placeable(node, reachable_from):
                return node
        if include_overflow:
            for node in self.overflow_nodes:
                if node.is_free and self._placeable(node, reachable_from):
                    return node
        return None

    def least_loaded_node(self, include_overflow: bool = False,
                          reachable_from: Optional[str] = None) -> Node:
        """The up, unquarantined, reachable node hosting the fewest
        components (fallback placement)."""
        candidates = [n for n in self.dedicated_nodes
                      if n.up and not n.quarantined
                      and self._placeable(n, reachable_from)]
        if include_overflow:
            candidates += [n for n in self.overflow_nodes
                           if n.up and not n.quarantined
                           and self._placeable(n, reachable_from)]
        if not candidates:
            raise ClusterError("no nodes available")
        return min(candidates, key=lambda n: len(n.components))

    def run(self, until: Optional[float] = None):
        return self.env.run(until)
