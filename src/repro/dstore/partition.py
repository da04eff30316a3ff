"""Hash partitioning with R-way replica placement for the brick store.

The profile keyspace (user ids) is hashed onto a fixed ring of
``n_partitions`` partitions; each partition is replicated on ``replicas``
consecutive brick *slots* (DStore's replica groups — "Cheap Recovery",
PAPERS.md).  Slots are stable identities: a brick process that dies and
restarts occupies the same slot, so placement never moves data around —
exactly the property that makes recovery cheap (the rejoining brick
knows which partitions it owns before it holds a single byte of them).

The hash is :func:`repro.sim.hashing.stable_hash`, the one every
placement in the repo uses.
"""

from __future__ import annotations

from typing import List

from repro.sim.hashing import stable_hash


class Partitioner:
    """Stable key -> partition -> replica-slot placement."""

    def __init__(self, n_bricks: int, replicas: int = 2,
                 n_partitions: int = 16) -> None:
        if n_bricks < 1:
            raise ValueError("need at least one brick")
        if not 1 <= replicas <= n_bricks:
            raise ValueError("replicas must be in [1, n_bricks]")
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_bricks = n_bricks
        self.replicas = replicas
        self.n_partitions = n_partitions

    def partition_of(self, key: str) -> int:
        return stable_hash(key) % self.n_partitions

    def slots_of(self, partition: int) -> List[int]:
        """The replica slots hosting ``partition``, preference order."""
        if not 0 <= partition < self.n_partitions:
            raise ValueError(f"no such partition {partition}")
        first = partition % self.n_bricks
        return [(first + offset) % self.n_bricks
                for offset in range(self.replicas)]

    def partitions_of_slot(self, slot: int) -> List[int]:
        """Every partition replicated on brick slot ``slot``."""
        return [partition for partition in range(self.n_partitions)
                if slot in self.slots_of(partition)]
