"""Simulated workstation nodes.

A :class:`Node` models one commodity machine in the cluster (the paper's
SPARC 10/20 and Ultra-1 boxes): a name, a CPU with a speed factor and a
fixed number of processors, optional local disk, and a flag marking it as
part of the dedicated pool or the overflow pool (Section 2.2.3).

CPU contention is modelled with processor slots: a node with ``cpus=2``
runs two compute bursts concurrently; further bursts queue FIFO.  Work is
expressed in *reference seconds* (seconds on a speed-1.0 node) so
heterogeneous clusters can be assembled, mirroring the paper's mixed
SPARCstation generations.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Set

from repro.sim.kernel import Environment, Interrupt, Queue


class NodeDown(Exception):
    """Raised when compute is attempted on a node that is down."""


class Node:
    """One machine in the cluster."""

    def __init__(
        self,
        env: Environment,
        name: str,
        cpus: int = 1,
        speed: float = 1.0,
        memory_mb: int = 256,
        has_disk: bool = True,
        overflow: bool = False,
    ) -> None:
        if cpus < 1:
            raise ValueError("cpus must be >= 1")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.env = env
        self.name = name
        self.cpus = cpus
        self.speed = speed
        #: nominal speed; ``speed`` drops below it while straggling.
        self.base_speed = speed
        self.memory_mb = memory_mb
        self.has_disk = has_disk
        self.overflow = overflow
        self.up = True
        #: flap-detected by the supervision layer: excluded from worker
        #: placement until an operator restarts the node.
        self.quarantined = False
        #: components (by name) currently hosted; used by the manager when
        #: looking for an "unused node" to spawn a new worker on.
        self.components: Set[str] = set()
        self._slots: Queue = env.queue()
        for index in range(cpus):
            self._slots.put_nowait(index)
        #: cumulative busy reference-seconds, for utilization reporting.
        self.busy_time = 0.0

    # -- component bookkeeping ---------------------------------------------

    def attach(self, component_name: str) -> None:
        self.components.add(component_name)

    def detach(self, component_name: str) -> None:
        self.components.discard(component_name)

    @property
    def is_free(self) -> bool:
        """True if no components are hosted here (candidate for spawning)."""
        return self.up and not self.quarantined and not self.components

    # -- failure model -------------------------------------------------------

    def crash(self) -> None:
        """Mark the node down.  Processes must be killed by the caller
        (the fault rows of :mod:`repro.chaos.campaign` do both)."""
        self.up = False

    def restart(self) -> None:
        """Bring a crashed node back with cold caches and free slots."""
        self.up = True
        self.speed = self.base_speed  # a reboot clears any straggle
        self.quarantined = False      # ... and a flap quarantine

    def quarantine(self) -> None:
        """Remove the node from future placement without killing what is
        already here.  Set by flap detection when restarts on this node
        keep not sticking; cleared by :meth:`restart` (operator reboot)."""
        self.quarantined = True

    # -- straggler model ------------------------------------------------------

    def degrade(self, factor: float) -> None:
        """Make the node a *straggler*: CPU slows to ``factor`` of its
        nominal speed without the node dying.  This is the fail-slow
        fault the paper's testbed never produced on demand — the node
        keeps answering (so broken-connection detection never fires) but
        work started here takes ``1/factor`` times longer.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("degrade factor must be in (0, 1]")
        self.speed = self.base_speed * factor

    def recover_speed(self) -> None:
        """End a straggle: restore the nominal CPU speed."""
        self.speed = self.base_speed

    # -- CPU model -----------------------------------------------------------

    def compute(self, work: float) -> Generator:
        """Process generator: occupy a CPU slot for ``work`` ref-seconds.

        Usage inside a component process::

            yield from node.compute(0.008 * size_kb)

        Raises :class:`NodeDown` if the node is down when work starts.
        """
        if work < 0:
            raise ValueError("work must be non-negative")
        if not self.up:
            raise NodeDown(self.name)
        slot = yield self._slots.get()
        try:
            if not self.up:
                raise NodeDown(self.name)
            duration = work / self.speed
            yield self.env.timeout(duration)
            self.busy_time += duration
        finally:
            self._slots.put_nowait(slot)

    def __repr__(self) -> str:
        pool = "overflow" if self.overflow else "dedicated"
        state = "up" if self.up else "DOWN"
        return f"<Node {self.name} {self.cpus}cpu x{self.speed} {pool} {state}>"
