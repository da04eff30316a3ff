"""Consensus-replicated manager: a multi-Paxos core under the SNS
manager, trading the paper's restart-on-failure soft state for a
3-replica replicated log that survives SAN partitions.

The paper keeps the load-balancing manager centralized and soft
(Section 3.1.3): peers restart it, and its state rebuilds from beacons
and re-registrations.  That design is simple and fast — and it splits
its brain the moment the SAN partitions, because *both* sides can run a
manager that believes it is alone.  This package holds the alternative
the paper's Section 6 hints at ("the manager is a single logical point
of failure"): the same manager API, but worker membership and the load
table are entries in a majority-replicated log, and only the replica
holding the current leader lease may beacon hints or accept work.

Layers, bottom up:

* :mod:`repro.consensus.paxos` — single-decree Paxos roles (proposer /
  acceptor / learner with ballot numbers), pure state machines with no
  simulator dependency.
* :mod:`repro.consensus.log` — the multi-Paxos composition: one
  acceptor/learner per log slot behind a shared promised ballot, with
  in-order application.
* :mod:`repro.consensus.replica` — :class:`Paxos`, the replication
  strategy a :class:`~repro.core.manager.Manager` is built with to speak
  Paxos over the SAN multicast, plus :class:`ReplicatedManagerGroup`,
  the three replicas' telemetry and supervisor.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "log": ("AcceptorLog", "LearnerLog"),
    "paxos": (
        "Accepted", "AcceptRequest", "Acceptor", "Chosen", "Learner",
        "Prepare", "Promise", "Proposer", "SyncRequest", "ballot_owner",
        "make_ballot"),
    "replica": ("Paxos", "ReplicatedManagerGroup"),
})

__all__ = [
    "Accepted",
    "AcceptRequest",
    "Acceptor",
    "AcceptorLog",
    "Chosen",
    "Learner",
    "LearnerLog",
    "Paxos",
    "Prepare",
    "Promise",
    "Proposer",
    "ReplicatedManagerGroup",
    "SyncRequest",
    "ballot_owner",
    "make_ballot",
]
