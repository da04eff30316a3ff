"""One brick: a node-hosted in-memory replica of profile partitions.

A brick is deliberately dumb storage — versioned cells in RAM, no log,
no disk.  Durability comes from its replica peers, which is the whole
"cheap recovery" bet: a kill -9'd brick restarts *empty* and rejoins in
constant time, because there is no log to replay; correctness survives
amnesia through the authority protocol below plus quorum overlap at the
coordinator (:mod:`repro.dstore.store`).

**Authority.**  A brick answers reads for a partition only while it is
*authoritative* for it.  First-incarnation bricks are authoritative for
everything they host (nothing was ever written before them).  A
restarted brick comes back with every hosted partition marked
*recovering*: it accepts writes immediately (new versions are new data —
amnesia cannot have lost them) but answers reads with "unknown" instead
of a false "absent", so the coordinator keeps asking peers that may
still hold the surviving copies of committed writes.  A recovering
partition becomes authoritative again cell-by-cell through read-repair
(per user, on access) and wholesale through the background anti-entropy
sweep (:class:`~repro.dstore.cluster.BrickCluster`).

Gray failures reuse the worker :class:`~repro.recovery.gray.GrayState`:
a fail-slow brick inflates its per-op service estimate, a hung brick
stops answering the data plane and probes, and a zombie brick keeps
acking writes while silently dropping them — the failure mode quorum
replication is specifically there to survive.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.component import Component
from repro.recovery.gray import GrayState

#: nominal service time of one brick operation (hash lookup + copy).
BRICK_OP_S = 0.0005

#: Cell = (version, value) — value may be the profile store's TOMBSTONE,
#: versioned like any value so a delete is never resurrected by
#: read-repair from a stale replica.
Cell = Tuple[int, Any]


class Brick(Component):
    """In-memory versioned cell store for a set of partitions."""

    kind = "brick"
    #: probe-surface compatibility with WorkerStub (bricks sit on
    #: dedicated nodes the partition faults never target).
    is_partitioned = False

    def __init__(self, cluster, node, name: str, slot: int,
                 partitions: List[int], owner: Any) -> None:
        super().__init__(cluster, node, name)
        self.slot = slot
        #: the BrickCluster that placed us (anti-entropy peers).
        self.owner = owner
        #: partition -> user -> key -> (version, value).
        self.cells: Dict[int, Dict[str, Dict[str, Cell]]] = {
            partition: {} for partition in partitions
        }
        #: partitions answering reads; a first-incarnation brick is
        #: authoritative everywhere, a restarted one nowhere.
        self.authoritative: Set[int] = set()
        #: per recovering partition: users made authoritative early by
        #: read-repair ("repairs lazily on access").
        self.repaired_users: Dict[int, Set[str]] = {}
        self.gray = GrayState()

    def _start_processes(self) -> None:
        # the data plane is synchronous (like supervisor probes, it
        # stays off the SAN so brick traffic cannot perturb request
        # scheduling); the only process a brick ever runs is the
        # anti-entropy sweep, and only when it has partitions to repair
        # — a first-incarnation brick schedules nothing, preserving
        # fault-free determinism
        if self.recovering_partitions:
            self.spawn(self.owner.anti_entropy_sweep(self))

    # -- membership ---------------------------------------------------------

    def mark_recovering(self) -> None:
        """Rejoin with amnesia: every hosted partition needs repair."""
        self.authoritative.clear()
        self.repaired_users = {partition: set() for partition in self.cells}

    def mark_authoritative(self) -> None:
        self.authoritative = set(self.cells)
        self.repaired_users = {}

    @property
    def recovering_partitions(self) -> List[int]:
        return sorted(partition for partition in self.cells
                      if partition not in self.authoritative)

    @property
    def fully_authoritative(self) -> bool:
        return all(partition in self.authoritative
                   for partition in self.cells)

    @property
    def responsive(self) -> bool:
        """Can the data plane get any answer out of this brick?"""
        return self.alive and self.node.up and not self.gray.hung

    def service_s(self) -> float:
        """Analytic per-op service time (gray inflation included)."""
        return (BRICK_OP_S / self.node.speed
                * self.gray.inflation(self.env.now))

    # -- data plane ---------------------------------------------------------

    def put_cells(self, partition: int, user_id: str,
                  cells: List[Tuple[str, int, Any]]) -> bool:
        """Store versioned cells; returns the ack.

        A zombie brick acks and drops — the coordinator counts the ack
        toward its write quorum, which is exactly why W > 1 copies are
        kept.  Lower-version cells never overwrite higher ones (a
        delayed write cannot resurrect stale data).
        """
        if not self.responsive or partition not in self.cells:
            return False
        if self.gray.zombie:
            self.gray.dropped += len(cells)
            return True  # the lie that makes zombies dangerous
        users = self.cells[partition]
        profile = users.setdefault(user_id, {})
        for key, version, value in cells:
            current = profile.get(key)
            if current is None or current[0] < version:
                profile[key] = (version, value)
        return True

    def read_user(self, partition: int,
                  user_id: str) -> Optional[Dict[str, Cell]]:
        """The brick's cells for ``user_id``, or ``None`` when this
        brick is not (yet) authoritative for them."""
        if not self.responsive or partition not in self.cells:
            return None
        if partition not in self.authoritative \
                and user_id not in self.repaired_users.get(partition,
                                                           ()):
            return None  # amnesia: "unknown", never a false "absent"
        return dict(self.cells[partition].get(user_id, {}))

    # -- repair intake -------------------------------------------------------

    def apply_repair(self, partition: int, user_id: str,
                     cells: Dict[str, Cell]) -> None:
        """Read-repair push: merge the winning cells and make this user
        authoritative here (an empty ``cells`` is an authoritative
        "absent")."""
        if not self.responsive or partition not in self.cells:
            return
        if self.gray.zombie:
            # a zombie drops repairs like any other write — otherwise
            # read-repair would quietly launder its staleness away
            self.gray.dropped += len(cells)
            return
        users = self.cells[partition]
        profile = users.setdefault(user_id, {})
        for key, (version, value) in cells.items():
            current = profile.get(key)
            if current is None or current[0] < version:
                profile[key] = (version, value)
        if not profile:
            users.pop(user_id, None)
        if partition not in self.authoritative:
            self.repaired_users.setdefault(partition, set()).add(user_id)

    def snapshot(self, partition: int) -> Optional[Dict[str, Dict[str, Cell]]]:
        """Full partition copy for anti-entropy, authoritative only."""
        if not self.responsive or partition not in self.authoritative:
            return None
        return {user: dict(cells)
                for user, cells in self.cells[partition].items()}

    def apply_sync(self, partition: int,
                   data: Dict[str, Dict[str, Cell]]) -> int:
        """Anti-entropy merge: absorb a peer snapshot, become
        authoritative for the whole partition.  Returns cells merged."""
        merged = 0
        users = self.cells[partition]
        for user_id, cells in data.items():
            profile = users.setdefault(user_id, {})
            for key, (version, value) in cells.items():
                current = profile.get(key)
                if current is None or current[0] < version:
                    profile[key] = (version, value)
                    merged += 1
        self.authoritative.add(partition)
        self.repaired_users.pop(partition, None)
        return merged

    # -- supervision surface -------------------------------------------------

    def probe_reply(self) -> Optional[tuple]:
        """Answer an end-to-end health probe, or ``None`` if no answer
        will ever come (same contract as
        :meth:`~repro.core.worker_stub.WorkerStub.probe_reply`).

        The probe is a synthetic write-read canary: a zombie brick acks
        the write and then cannot produce the bytes back, so
        ``output_ok`` is False — the detection signal beacon-style
        liveness can never see.
        """
        if not self.alive or not self.node.up:
            return None
        if self.gray.hung:
            return None
        nominal_s = BRICK_OP_S / self.node.speed
        service_s = nominal_s * self.gray.inflation(self.env.now)
        output_ok = not self.gray.zombie and not self.gray.corrupt
        return service_s, nominal_s, output_ok

    def cell_count(self) -> int:
        return sum(len(cells) for users in self.cells.values()
                   for cells in users.values())

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        mode = ("authoritative" if self.fully_authoritative
                else f"recovering({len(self.recovering_partitions)})")
        return (f"<Brick {self.name} slot {self.slot} {state} {mode} "
                f"{self.cell_count()} cells>")
