"""DStore-style replicated cluster hash table for the profile store.

The paper keeps one hard-state component — the ACID customization
database (§2.3).  This package replaces that single point of failure
with the design of its direct descendant, "Cheap Recovery: A Key to
Self-Managing State" (Huang & Fox): partitioned, replicated in-memory
bricks with quorum reads/writes and constant-time amnesiac rejoin.

* :mod:`repro.dstore.partition` — key -> partition -> replica slots;
* :mod:`repro.dstore.brick` — one brick: versioned cells, authority
  protocol, gray-failure surface;
* :mod:`repro.dstore.cluster` — membership, cheap rejoin, anti-entropy;
* :mod:`repro.dstore.store` — the quorum coordinator, the ``dstore``
  backend of :class:`~repro.tacc.customization.ProfileStore`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "brick": ("BRICK_OP_S", "Brick"),
    "cluster": ("BRICK_SPAWN_S", "BrickCluster"),
    "partition": ("Partitioner",),
    "store": ("QuorumCoordinator", "QuorumError", "ReadUnavailable",
              "TOMBSTONE"),
})

__all__ = [
    "BRICK_OP_S",
    "BRICK_SPAWN_S",
    "Brick",
    "BrickCluster",
    "Partitioner",
    "QuorumCoordinator",
    "QuorumError",
    "ReadUnavailable",
    "TOMBSTONE",
]
