"""The quorum coordinator: the ``dstore`` backend of the profile store.

:class:`QuorumCoordinator` answers the backend verbs of
:class:`repro.tacc.customization.ProfileStore` (``commit(writes)``,
``read(user)``, ``users()``, ``recover()``), so the front's transactions,
:class:`~repro.tacc.customization.WriteThroughCache`, TranSend's
profile plumbing, and every service sit on either backend unchanged.
Underneath, each user's profile lives as versioned cells on ``R``
replica bricks (:mod:`repro.dstore.partition`), and the ACID
guarantees narrow to DStore's: atomic *per key*, not per transaction —
the store is a cluster hash table, not a database (Huang & Fox; the
paper's §2.3 database remains available as the ``single`` backend).

**Writes** stamp every cell from the cluster-wide version clock and push
to all replicas of the user's partition; commit requires acks from all
``R`` replicas, relaxed to "every responsive replica, at least one"
while peers are down — such commits are counted ``degraded_writes``.
Zero acks raises :class:`QuorumError` and nothing is recorded as
committed.

**Reads** consult every replica and merge cells by highest version, so
one surviving up-to-date copy is enough (W + RQ > R with RQ = 1;
reading all responsive replicas instead of exactly RQ buys freshness
against zombies and drives repair).  Replicas that answered stale,
missing, or "recovering — unknown" get the merged result pushed back
(**read-repair**), which is how a rejoined amnesiac brick becomes
authoritative for hot users long before the anti-entropy sweep reaches
their partition.  No authoritative copy reachable raises
:class:`ReadUnavailable` — the availability number chaos campaigns
score.

The coordinator keeps the **committed-cells log**: every quorum-acked
``(user, key) -> (version, value)``.  It exists purely as the oracle for
the chaos invariant "no committed write is ever lost" — after a
campaign, every entry must still be readable at ``>=`` that version.

Data-plane calls are synchronous (same rationale as supervisor probes:
the SAN is stateful, and brick traffic riding it would perturb request
scheduling and break fault-free determinism).  Each call prices itself
analytically into :attr:`last_op_cost_s` — per-replica hop RTT plus the
brick's gray-inflated service time, plus a timeout charge per
unresponsive replica — which the service layer turns into simulated
latency and span annotations.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.dstore.brick import Cell
from repro.dstore.cluster import BrickCluster
from repro.tacc.customization import TOMBSTONE, Write

#: one coordinator->brick hop (SAN round trip, analytic).
QUORUM_HOP_S = 0.001

#: charge for giving up on an unresponsive (hung/dead-node) replica.
BRICK_TIMEOUT_S = 0.05


class QuorumError(Exception):
    """A write could not reach its ack quorum; nothing was committed."""


class ReadUnavailable(Exception):
    """No authoritative replica reachable for this user right now."""


class QuorumCoordinator:
    """The ``dstore`` backend: quorum R/W over a :class:`BrickCluster`."""

    #: the component a profile read's span names
    component = "ReplicatedProfileStore"

    def __init__(self, bricks: BrickCluster) -> None:
        self.bricks = bricks
        self.partitioner = bricks.partitioner
        #: the invariant oracle: every quorum-acked cell ever committed.
        self.committed: Dict[Tuple[str, str], Cell] = {}
        self.quorum_reads = self.quorum_writes = self.read_repairs = 0
        self.degraded_writes = self.failed_writes = self.unavailable_reads = 0
        #: brownout controller (repro.degrade), wired by the fabric;
        #: at the relaxed-reads ladder level reads stop at the first
        #: authoritative replica (R=1) and skip read repair.  Writes
        #: keep their quorum unconditionally — degraded harvest only,
        #: never degraded durability.
        self.degradation: Optional[Any] = None
        self.relaxed_reads = 0
        #: analytic price of the most recent read/write (so far, if it
        #: raised), for the service layer to charge as simulated time.
        self.last_op_cost_s = 0.0
        self.last_op_hops = 0

    # -- reads ---------------------------------------------------------------

    def read(self, user_id: str) -> Dict[str, Any]:
        """The user's merged live cells (quorum read)."""
        return {key: value
                for key, (_, value) in self._quorum_read(user_id).items()
                if value != TOMBSTONE}

    def users(self) -> List[str]:
        """Users with at least one committed live cell (oracle view —
        membership is coordinator state, not a cluster scan)."""
        return sorted({user_id for (user_id, _key), (_version, value)
                       in self.committed.items() if value != TOMBSTONE})

    def _contact(self, partition: int) -> Iterator[Any]:
        """Reach ``partition``'s live replicas in slot order, pricing each
        into ``last_op_*``; yields the responsive ones."""
        for slot in self.partitioner.slots_of(partition):
            brick = self.bricks.brick_at(slot)
            if brick is None or not brick.alive:
                continue
            self.last_op_hops += 1
            if not brick.responsive:
                self.last_op_cost_s += BRICK_TIMEOUT_S
                continue
            self.last_op_cost_s += QUORUM_HOP_S + brick.service_s()
            yield brick

    def _quorum_read(self, user_id: str) -> Dict[str, Cell]:
        partition = self.partitioner.partition_of(user_id)
        relaxed = (self.degradation is not None
                   and self.degradation.relaxed_reads_active)
        self.last_op_cost_s, self.last_op_hops = 0.0, 0
        #: (brick, cells-or-None-for-recovering) from responsive replicas
        answers = []
        for brick in self._contact(partition):
            answers.append((brick, brick.read_user(partition, user_id)))
            if relaxed and answers[-1][1] is not None:
                # R=1: the first authoritative answer wins — possibly
                # missing a newer version on an unread replica, which
                # is exactly the harvest this level trades away
                self.relaxed_reads += 1
                break
        self.quorum_reads += 1
        authoritative = [cells for _, cells in answers
                         if cells is not None]
        if not authoritative:
            self.unavailable_reads += 1
            raise ReadUnavailable(user_id)
        merged: Dict[str, Cell] = {}
        for cells in authoritative:
            for key, (version, value) in cells.items():
                current = merged.get(key)
                if current is None or current[0] < version:
                    merged[key] = (version, value)
        if not relaxed:
            for brick, cells in answers:
                if cells is None or any(
                        key not in cells or cells[key][0] < version
                        for key, (version, _) in merged.items()):
                    brick.apply_repair(partition, user_id, dict(merged))
                    self.read_repairs += 1
        return merged

    # -- writes --------------------------------------------------------------

    def commit(self, writes: List[Write]) -> None:
        """Push the batch to replicas, user by user.

        Each user's cells commit (enter the oracle) the moment their
        quorum acks — atomicity is per key, so an ack failure on a
        later user raises :class:`QuorumError` without undoing earlier
        users.  That is DStore's contract, weaker than the single-node
        store's transactions; services that need cross-key atomicity
        keep the ``single`` backend.
        """
        replicas = self.bricks.replicas
        by_user: Dict[str, List[Tuple[str, Any]]] = {}
        for user_id, key, value in writes:
            by_user.setdefault(user_id, []).append((key, value))
        self.last_op_cost_s, self.last_op_hops = 0.0, 0
        for user_id, user_writes in by_user.items():
            partition = self.partitioner.partition_of(user_id)
            cells = [(key, self.bricks.next_version(), value)
                     for key, value in user_writes]
            acks = 0
            responsive = 0
            for brick in self._contact(partition):
                responsive += 1
                if brick.put_cells(partition, user_id, cells):
                    acks += 1
            required = max(1, min(replicas, responsive))
            if acks < required:
                self.failed_writes += 1
                raise QuorumError(
                    f"user {user_id}: {acks} acks, needed {required} "
                    f"({responsive} responsive replicas)")
            if acks < replicas:
                self.degraded_writes += 1
            for key, version, value in cells:
                self.committed[(user_id, key)] = (version, value)
        self.quorum_writes += 1

    def recover(self) -> int:
        """Cheap recovery has no replay: the coordinator holds no
        durable log to rebuild from.  Constant time, nothing applied."""
        return 0

    # -- invariant + reporting -----------------------------------------------

    def verify_committed(self) -> List[Dict[str, Any]]:
        """The committed-write-loss check: quorum-read every cell in
        the oracle; report each one lost or stale.  Bypasses every
        front-end cache by construction (reads hit the bricks)."""
        lost = []
        for (user_id, key), (version, _) in sorted(self.committed.items()):
            report = {"user": user_id, "key": key, "version": version}
            try:
                cell = self._quorum_read(user_id).get(key)
            except ReadUnavailable:
                lost.append({**report, "reason": "unavailable"})
                continue
            if cell is None:
                lost.append({**report, "reason": "missing"})
            elif cell[0] < version:
                lost.append({**report, "reason": "stale",
                             "found_version": cell[0]})
        return lost

    def stats(self, counters: Dict[str, int]) -> Dict[str, Any]:
        return {
            "write_quorum": self.bricks.replicas,
            "committed_cells": len(self.committed),
            **counters,
            "quorum_reads": self.quorum_reads,
            "quorum_writes": self.quorum_writes,
            "degraded_writes": self.degraded_writes,
            "failed_writes": self.failed_writes,
            "unavailable_reads": self.unavailable_reads,
            "read_repairs": self.read_repairs,
            "relaxed_reads": self.relaxed_reads,
        }
