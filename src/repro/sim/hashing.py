"""One stable hash and one ring: placement by key.

Cache nodes, routing affinity and the profile bricks all place a key by
hashing it (Devlin/Gray's *partition*: one concept, one placement
function).  The hash is md5-based, **not** Python's builtin ``hash``:
the builtin is salted per process, and placement must be identical
across runs and across the fan-out runner's worker processes for
``--jobs N`` output to stay byte-identical to serial.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Collection, Iterator, List, Set, Tuple


def stable_hash(value: str) -> int:
    """Deterministic 64-bit hash of a string."""
    digest = hashlib.md5(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class PartitionError(Exception):
    """Membership errors (no nodes, duplicate add, unknown remove)."""


class Ring:
    """Consistent hashing with virtual nodes.

    Each node owns ``replicas`` points on a 64-bit ring; a key belongs
    to the node owning the first point at or after the key's hash, and
    only ~1/N of the keys move when a node joins or leaves.  A ring is
    built for one membership and rebuilt when it changes.
    """

    def __init__(self, nodes: Collection[str] = (),
                 replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if len(set(nodes)) != len(nodes):
            raise PartitionError("a node is named twice")
        #: ascending (point, owner) pairs
        self._points: List[Tuple[int, str]] = sorted(
            (stable_hash(f"{node}#{replica}"), node)
            for node in nodes for replica in range(replicas))

    def walk(self, key: str) -> Iterator[str]:
        """Every node once, clockwise from ``key``'s point: the owner
        first, then where an overflowing request goes next."""
        points = self._points
        # a 1-tuple sorts before every pair sharing its first element
        start = bisect_left(points, (stable_hash(key),))
        seen: Set[str] = set()
        for index in range(start, start + len(points)):
            node = points[index % len(points)][1]
            if node not in seen:
                seen.add(node)
                yield node

    def locate(self, key: str) -> str:
        for node in self.walk(key):
            return node
        raise PartitionError("no nodes in partition")
