"""Brick membership: placement, cheap rejoin, anti-entropy repair.

The :class:`BrickCluster` owns the slot -> brick mapping (one dedicated
``bricknode`` per slot, mirroring the paper's dedicated cache nodes),
the global version clock that stamps every cell write, and the two
repair mechanisms of "Cheap Recovery": the constant-time rejoin and the
background anti-entropy sweep.

**Rejoin is O(1), not O(log).**  ``respawn(slot)`` waits one process
fork (:data:`BRICK_SPAWN_S`) and starts an *empty* brick that serves
writes immediately — there is no WAL to replay, so the wait is the same
whether the dead incarnation held ten cells or ten million.  Each rejoin
is recorded (``rejoin_s``, plus ``cells_at_kill`` to demonstrate the
independence); the supervisor that asked for the respawn notes the
record in its :class:`~repro.recovery.ledger.RecoveryLedger`.

**Repair is lazy.**  Reads repair individual users on access (the
coordinator's job, :mod:`repro.dstore.store`); the sweep spawned by each
recovering brick copies whole partitions from an authoritative peer in
the background, charging time proportional to the data moved — recovery
work scales with state size, *rejoin* does not.  When no authoritative
peer survives for a partition (every replica lost memory at once), the
lowest live slot promotes its own — possibly empty — copy so the
partition does not stay unreadable forever; the promotion is counted,
and the committed-write-loss invariant is what decides whether it
actually lost anything.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from repro.dstore.brick import Brick
from repro.dstore.partition import Partitioner
from repro.sim.cluster import Cluster

#: process-fork latency for a (re)started brick: the whole rejoin cost.
BRICK_SPAWN_S = 0.4

#: pause between anti-entropy sweep passes on a recovering brick.
ANTI_ENTROPY_INTERVAL_S = 0.5

#: per-partition sync overhead + per-cell copy cost.
SYNC_BASE_S = 0.01
SYNC_CELL_S = 0.0002

#: the store's geometry: three bricks, each partition on two of them,
#: sixteen partitions
N_BRICKS = 3
REPLICAS = 2
N_PARTITIONS = 16


class BrickCluster:
    """Slot placement, version clock, and repair for the brick store."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.partitioner = Partitioner(N_BRICKS, REPLICAS, N_PARTITIONS)
        self.n_bricks = N_BRICKS
        self.replicas = REPLICAS
        self.nodes: List[Any] = []
        #: slot -> current brick incarnation (may be dead, awaiting
        #: supervision; never None after boot()).
        self.bricks: List[Optional[Brick]] = [None] * N_BRICKS
        self._incarnations = [itertools.count(1) for _ in range(N_BRICKS)]
        self._version_clock = 0
        #: rejoin measurements: brick, slot, rejoin_s, cells_at_kill,
        #: sync_s (None until the sweep finishes).
        self.rejoins: List[Dict[str, Any]] = []
        self._pending_sync: Dict[str, Dict[str, Any]] = {}
        # repair counters
        self.partitions_synced = 0
        self.cells_synced = 0
        self.data_loss_promotions = 0

    # -- boot ----------------------------------------------------------------

    def boot(self) -> "BrickCluster":
        """One dedicated node + one authoritative empty brick per slot."""
        for slot in range(self.n_bricks):
            node = self.cluster.add_node(f"bricknode{slot}")
            # permanent reservation: a dead brick detaching must not
            # make this node look free to worker placement while the
            # replacement is forking
            node.attach(f"brickslot{slot}")
            self.nodes.append(node)
            self._start_brick(slot, recovering=False)
        return self

    def _start_brick(self, slot: int, recovering: bool) -> Brick:
        incarnation = next(self._incarnations[slot])
        brick = Brick(self.cluster, self.nodes[slot],
                      f"brick{slot}.{incarnation}", slot,
                      self.partitioner.partitions_of_slot(slot), self)
        if recovering:
            brick.mark_recovering()
        else:
            brick.mark_authoritative()
        brick.start()  # spawns the anti-entropy sweep iff recovering
        self.bricks[slot] = brick
        return brick

    # -- lookups -------------------------------------------------------------

    def brick_at(self, slot: int) -> Optional[Brick]:
        return self.bricks[slot]

    def population(self) -> Dict[str, Brick]:
        """Current incarnations by name — dead ones included, so the
        supervisor's dead-brick scan can see them."""
        return {brick.name: brick for brick in self.bricks
                if brick is not None}

    def replica_bricks(self, partition: int) -> List[Brick]:
        return [self.bricks[slot]
                for slot in self.partitioner.slots_of(partition)
                if self.bricks[slot] is not None]

    def next_version(self) -> int:
        """Monotonic cell-version stamp (deterministic, cluster-wide)."""
        self._version_clock += 1
        return self._version_clock

    # -- cheap rejoin --------------------------------------------------------

    def respawn(self, slot: int):
        """Process generator: restart the brick on ``slot`` with empty
        memory.  Returns the new (recovering) incarnation.

        The only wait here is the process fork — deliberately **no**
        term depends on how much data the dead incarnation held.
        """
        previous = self.bricks[slot]
        cells_at_kill = previous.cell_count() if previous else 0
        mark = self.env.now
        yield self.env.timeout(BRICK_SPAWN_S)
        node = self.nodes[slot]
        if not node.up:
            node.restart()
        brick = self._start_brick(slot, recovering=True)
        record = {
            "brick": brick.name,
            "slot": slot,
            "rejoin_s": self.env.now - mark,
            "rejoined_at": self.env.now,
            "cells_at_kill": cells_at_kill,
            "sync_s": None,
        }
        self.rejoins.append(record)
        self._pending_sync[brick.name] = record
        return brick

    # -- anti-entropy --------------------------------------------------------

    def _authoritative_peer(self, partition: int,
                            exclude: Brick) -> Optional[Brick]:
        for brick in self.replica_bricks(partition):
            if brick is not exclude and brick.responsive \
                    and partition in brick.authoritative:
                return brick
        return None

    def _lowest_live_slot(self, partition: int) -> Optional[int]:
        for slot in sorted(self.partitioner.slots_of(partition)):
            brick = self.bricks[slot]
            if brick is not None and brick.responsive:
                return slot
        return None

    def anti_entropy_sweep(self, brick: Brick):
        """Process generator run *by* a recovering brick: copy each
        recovering partition from an authoritative peer, then exit."""
        while brick.alive and not brick.fully_authoritative:
            yield self.env.timeout(ANTI_ENTROPY_INTERVAL_S)
            if not brick.alive:
                return
            for partition in brick.recovering_partitions:
                peer = self._authoritative_peer(partition, brick)
                if peer is None:
                    # every replica lost memory at once: nothing
                    # authoritative survives, so the lowest live slot
                    # promotes what it has (possibly nothing) — the
                    # write-loss invariant decides if that cost data
                    if self._lowest_live_slot(partition) == brick.slot:
                        brick.authoritative.add(partition)
                        brick.repaired_users.pop(partition, None)
                        self.data_loss_promotions += 1
                    continue
                snapshot = peer.snapshot(partition)
                if snapshot is None:
                    continue  # peer failed between check and copy
                cells = sum(len(cell) for cell in snapshot.values())
                yield self.env.timeout(SYNC_BASE_S + SYNC_CELL_S * cells)
                if not brick.alive:
                    return
                self.cells_synced += brick.apply_sync(partition, snapshot)
                self.partitions_synced += 1
        record = self._pending_sync.pop(brick.name, None)
        if record is not None and brick.alive:
            record["sync_s"] = self.env.now - record["rejoined_at"]

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        live = [brick for brick in self.bricks
                if brick is not None and brick.alive]
        return {
            "n_bricks": self.n_bricks,
            "replicas": self.replicas,
            "n_partitions": self.partitioner.n_partitions,
            "live": len(live),
            "authoritative": sum(
                1 for brick in live if brick.fully_authoritative),
            "rejoins": [dict(record) for record in self.rejoins],
            "partitions_synced": self.partitions_synced,
            "cells_synced": self.cells_synced,
            "data_loss_promotions": self.data_loss_promotions,
        }
