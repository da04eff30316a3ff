"""Key-space partitioners for the virtual cache.

The paper's manager stub "can manage a number of separate cache nodes as
a single virtual cache, hashing the key space across the separate caches
and automatically re-hashing when cache nodes are added or removed"
(Section 3.1.5).  Two partitioners are provided:

* :class:`ModHashPartitioner` — hash(key) mod N, the 1997 approach.
  Simple, but changing N remaps nearly every key (cold caches after a
  membership change).
* :class:`repro.sim.hashing.Ring` — the modern refinement; only ~1/N of
  keys move on a membership change.  Offered as an ablation: the
  benchmark suite compares post-rehash hit-rate dips under both.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.hashing import PartitionError, stable_hash


class ModHashPartitioner:
    """hash(key) mod N over an ordered node list."""

    def __init__(self, nodes: Sequence[str] = ()) -> None:
        self._nodes: List[str] = list(nodes)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise PartitionError(f"node {node!r} already present")
        self._nodes.append(node)

    def remove_node(self, node: str) -> None:
        try:
            self._nodes.remove(node)
        except ValueError:
            raise PartitionError(f"node {node!r} not present") from None

    def locate(self, key: str) -> str:
        if not self._nodes:
            raise PartitionError("no nodes in partition")
        return self._nodes[stable_hash(key) % len(self._nodes)]


def remap_fraction(partitioner_factory, keys: Sequence[str],
                   nodes: Sequence[str], removed: str) -> float:
    """Fraction of keys whose owner changes when ``removed`` leaves.

    The measurement behind the mod-hash vs consistent-hash ablation.
    """
    before = partitioner_factory(nodes)
    remaining = [n for n in nodes if n != removed]
    after = partitioner_factory(remaining)
    moved = 0
    for key in keys:
        old_owner = before.locate(key)
        new_owner = after.locate(key)
        if old_owner != removed and old_owner != new_owner:
            moved += 1
    survivors = [key for key in keys if before.locate(key) != removed]
    return moved / len(survivors) if survivors else 0.0
