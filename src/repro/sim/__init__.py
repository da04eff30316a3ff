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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "kernel": (
        "Environment", "Event", "Interrupt", "Process", "Queue", "QueueFull",
        "Timeout"),
    "rng": ("RandomStreams",),
    "node": ("Node",),
    "network": ("AccessLink", "Network"),
    "multicast": ("MulticastGroup",),
    "transport": ("Channel", "ChannelClosed"),
    "cluster": ("Cluster",),
})

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
