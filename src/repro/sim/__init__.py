"""Discrete-event simulation substrate for the SNS reproduction.

The paper measured a real 15-node SPARC cluster; this package provides the
deterministic stand-in: a generator-based discrete-event kernel
(:mod:`repro.sim.kernel`), seeded random streams, simulated workstation
nodes, a system-area network with bandwidth and saturation behaviour,
unreliable IP multicast, and reliable TCP-like channels.  Faults are
injected from above, by :mod:`repro.chaos.campaign`.

All higher layers (SNS, TACC, TranSend, HotBot) are written against this
substrate, so every experiment in the paper's Section 4 replays exactly
given a seed.
"""

from repro.sim.kernel import (
    Environment,
    Event,
    Interrupt,
    Process,
    Queue,
    QueueFull,
    Timeout,
)
from repro.sim.rng import RandomStreams
from repro.sim.node import Node
from repro.sim.network import AccessLink, Network
from repro.sim.multicast import MulticastGroup
from repro.sim.transport import Channel, ChannelClosed
from repro.sim.cluster import Cluster

__all__ = [
    "AccessLink",
    "Channel",
    "ChannelClosed",
    "Cluster",
    "Environment",
    "Event",
    "Interrupt",
    "MulticastGroup",
    "Network",
    "Node",
    "Process",
    "Queue",
    "QueueFull",
    "RandomStreams",
    "Timeout",
]
