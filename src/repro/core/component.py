"""Base class for SNS components (manager, front ends, worker stubs).

A component is a named simulation process pinned to a node.  Its life
cycle is deliberately crash-oriented: ``kill()`` models SIGKILL — the
main loop is interrupted mid-whatever, channels break, queue contents
evaporate — because the whole point of the SNS design is that peers
recover from exactly that, with no clean-shutdown cooperation from the
victim (Section 3.1.3).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.sim.cluster import Cluster
from repro.sim.kernel import (
    PENDING,
    Environment,
    PeriodicHandle,
    Process,
)
from repro.sim.node import Node


#: spawn() never sweeps a shorter process list than this
_SWEEP_FLOOR = 64


class Component:
    """A named, killable process hosted on a cluster node."""

    kind = "component"

    def __init__(self, cluster: Cluster, node: Node, name: str) -> None:
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.node = node
        self.name = name
        self.alive = False
        self.started_at: Optional[float] = None
        self._procs: List[Process] = []
        #: length of ``_procs`` at which spawn() next drops the dead
        self._sweep_at = _SWEEP_FLOOR
        self._timers: List[PeriodicHandle] = []

    # -- life cycle ----------------------------------------------------------

    def start(self) -> "Component":
        if self.alive:
            raise RuntimeError(f"{self.name} already started")
        self.alive = True
        self.started_at = self.env.now
        self.node.attach(self.name)
        self._start_processes()
        return self

    def _start_processes(self) -> None:
        """Subclasses spawn their loops here via :meth:`spawn`."""
        raise NotImplementedError

    def spawn(self, generator) -> Process:
        """Track a sub-process so kill() can interrupt it.

        The process absorbs the Interrupt a kill throws, so component
        death never crashes the simulation itself.  Finished processes
        are swept out when the list has doubled since the last sweep's
        survivors, which keeps spawn amortised O(1) however many
        processes are alive at once.
        """
        procs = self._procs
        if len(procs) >= self._sweep_at:
            self._procs = procs = [
                p for p in procs if p._value is PENDING]
            self._sweep_at = max(_SWEEP_FLOOR, 2 * len(procs))
        process = Process(self.env, generator, absorb_interrupt=True)
        procs.append(process)
        return process

    def every(self, period: float, callback: Callable[[], None], *,
              first_delay: Optional[float] = None) -> PeriodicHandle:
        """Register a coalesced periodic callback, cancelled on kill().

        The timer analogue of :meth:`spawn`: maintenance work that used
        to be a ``while True: yield timeout(period)`` process becomes a
        yield-free callback on the environment's shared periodic buckets
        (:meth:`repro.sim.kernel.Environment.periodic`), so N nodes with
        the same report interval cost one heap event per interval
        instead of N.  The callback never runs after the component dies:
        kill() cancels the handle, and a defensive liveness check guards
        the same-tick race where the bucket fires before a kill lands.
        """
        def _tick() -> None:
            if self.alive:
                callback()

        handle = self.env.periodic(period, _tick, first_delay=first_delay)
        self._timers.append(handle)
        return handle

    def kill(self) -> None:
        """Crash the component (SIGKILL semantics)."""
        if not self.alive:
            return
        self.alive = False
        self.node.detach(self.name)
        for process in self._procs:
            # A component may kill itself from inside one of its own
            # processes (e.g. a standby promoting itself); that frame
            # simply returns after the kill, so skip interrupting it.
            if process.is_alive and process is not self.env.active_process:
                process.interrupt(f"{self.name} killed")
        self._procs.clear()
        self._sweep_at = _SWEEP_FLOOR
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        self._on_crash()

    def _on_crash(self) -> None:
        """Subclasses break channels / drop queues here."""

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"<{type(self).__name__} {self.name} on {self.node.name} " \
               f"{state}>"
