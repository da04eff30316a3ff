"""Process-pair fault tolerance for the manager: the road not taken.

"In the original prototype for the manager, information about distillers
was kept as hard state ... Resilience against crashes was via
process-pair fault tolerance, as in [Tandem]: the primary manager
process was mirrored by a secondary whose role was to maintain a current
copy of the primary's state, and take over the primary's tasks if it
detects that the primary has failed.  In this scenario, crash recovery
is seamless, since all state in the secondary process is up-to-date.

"However, by moving entirely to BASE semantics, we were able to simplify
the manager greatly and increase our confidence in its correctness."
(Section 3.1.3)

This module implements the discarded design so the trade can be
*measured* (see ``benchmarks/test_bench_processpair.py``): a
:class:`SecondaryManager` mirrors the primary's worker table from
per-beacon state snapshots, treats those snapshots as heartbeats, and on
primary silence promotes itself — a new manager that starts beaconing
immediately *with the mirrored adverts*, so front ends never lose their
hints.  The costs are exactly the ones the paper cites: a continuous
mirroring message stream, a second dedicated process, and more moving
parts in the recovery path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.component import Component
from repro.core.config import SNSConfig
from repro.core.manager import Manager, WorkerInfo
from repro.core.messages import RegisterWorker, WorkerAdvert
from repro.sim.cluster import Cluster
from repro.sim.node import Node

#: bytes per mirrored snapshot: header + per-worker entry.
MIRROR_HEADER_BYTES = 96
MIRROR_ENTRY_BYTES = 64
#: beacon intervals of mirror silence after which the secondary
#: presumes the primary dead and takes over.
SILENCE_INTERVALS = 3


class MirroredManager(Manager):
    """A manager that ships a state snapshot to its secondary every
    beacon period (hard-state mirroring over the SAN)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.secondary: Optional["SecondaryManager"] = None
        self.mirror_messages = 0
        self.mirror_bytes = 0

    def attach_secondary(self, secondary: "SecondaryManager") -> None:
        self.secondary = secondary

    def _publish_beacon(self) -> None:
        # interleave mirroring with the normal beacon cadence: every
        # tick after the first, ship the snapshot just before the new
        # beacon goes out (the order the old wrapped generator produced)
        if self.beacons_sent > 0:
            self._mirror_to_secondary()
        super()._publish_beacon()

    def _mirror_to_secondary(self) -> None:
        secondary = self.secondary
        if secondary is None or not secondary.alive or not self.alive:
            return
        snapshot = self._build_adverts()
        size = (MIRROR_HEADER_BYTES
                + MIRROR_ENTRY_BYTES * len(snapshot))
        delay = self.cluster.network.transfer_delay(size)
        self.mirror_messages += 1
        self.mirror_bytes += size
        self.spawn(self._deliver_mirror(secondary, snapshot, delay))

    def _deliver_mirror(self, secondary, snapshot, delay):
        yield self.env.timeout(delay)
        if secondary.alive:
            secondary.receive_snapshot(snapshot, self.env.now)


class SecondaryManager(Component):
    """The hot standby: mirrors state, detects silence, takes over."""

    kind = "manager-secondary"

    def __init__(self, cluster: Cluster, node: Node, name: str,
                 config: SNSConfig, fabric: Any) -> None:
        super().__init__(cluster, node, name)
        self.config = config
        self.fabric = fabric
        self.mirror: Dict[str, WorkerAdvert] = {}
        self.last_snapshot_at: Optional[float] = None
        self.snapshots_received = 0
        self.promoted = False

    def receive_snapshot(self, snapshot: Dict[str, WorkerAdvert],
                         now: float) -> None:
        if not self.alive:
            return
        self.mirror = dict(snapshot)
        self.last_snapshot_at = now
        self.snapshots_received += 1

    def _start_processes(self) -> None:
        self.every(self.config.beacon_interval_s, self._watch_check)

    def _watch_check(self) -> None:
        interval = self.config.beacon_interval_s
        if self.last_snapshot_at is None:
            return  # primary not up yet
        silence = self.env.now - self.last_snapshot_at
        if silence > SILENCE_INTERVALS * interval:
            self._promote()  # kill()s this component: the timer dies too

    def _promote(self) -> None:
        """Take over the primary's duties with the mirrored state."""
        self.promoted = True
        state = dict(self.mirror)
        self.kill()  # this component's life ends; a primary is born
        self.fabric.promote_secondary(self.node, state)


def seed_manager_state(manager: Manager,
                       snapshot: Dict[str, WorkerAdvert]) -> int:
    """Pre-populate a fresh manager with mirrored worker state.

    Seeded entries have no live connection (``endpoint=None``): the
    takeover manager balances on them immediately, and each worker's
    re-registration (triggered by the new incarnation's first beacon)
    swaps in a connected entry.  Until then the timeout detector guards
    against mirrored entries for workers that died with the primary.
    """
    now = manager.env.now
    seeded = 0
    for advert in snapshot.values():
        registration = RegisterWorker(
            worker_name=advert.worker_name,
            worker_type=advert.worker_type,
            node_name=advert.node_name,
            stub=advert.stub,
        )
        info = WorkerInfo(registration, endpoint=None, now=now)
        info.queue_avg = advert.queue_avg
        manager.workers[info.name] = info
        seeded += 1
    return seeded
