"""Injectable gray-failure state for one worker process.

Unlike the clean faults of :mod:`repro.chaos.campaign` (kill, node
crash, partition), a gray-failed worker stays alive and keeps up
appearances — its stub keeps sending load reports, its registration
connection stays open — while failing at its actual job.  These are
the incidents Section 4.5 reports from production:

* **fail-slow** — service time inflated by a constant factor (a
  misbehaving process, cold caches, a sick disk);
* **hang** — the next request is accepted and then held forever; the
  queue backs up behind it ("the RPC call to the distiller times out"
  is the paper's only detector);
* **zombie** — load reports keep flowing but every submitted request is
  silently swallowed: the queue always reads empty, so the balancer
  *prefers* the worker that does nothing;
* **leak** — service time degrades monotonically with time since
  injection, the memory-leak distiller "cured" by timer restarts;
* **corrupt-output** — requests complete on time but the bytes shipped
  back fail end-to-end validation.

The state object is deliberately dumb — a bag of flags the worker stub
consults on its hot paths — so that a healthy worker (all defaults)
pays one attribute read and zero extra RNG draws.
"""

from __future__ import annotations

from typing import List, Optional


class GrayState:
    """Gray-failure switches for one worker stub."""

    __slots__ = ("slow_factor", "hung", "zombie", "leak_rate",
                 "leak_started_at", "corrupt", "dropped", "injected_at",
                 "modes")

    def __init__(self) -> None:
        #: constant service-time multiplier (fail-slow).
        self.slow_factor = 1.0
        #: the next dequeued request is held forever (hang).
        self.hung = False
        #: accept-and-drop every submission while reporting load (zombie).
        self.zombie = False
        #: service-time growth per second since injection (leak).
        self.leak_rate = 0.0
        self.leak_started_at = 0.0
        #: results ship with bytes that fail end-to-end validation.
        self.corrupt = False
        #: requests silently swallowed by the zombie/hang modes.
        self.dropped = 0
        #: when the first mode was injected (None while healthy).
        self.injected_at: Optional[float] = None
        #: injection order, for fault timelines and reports.
        self.modes: List[str] = []

    # -- injection ----------------------------------------------------------

    def _mark(self, mode: str, now: float) -> None:
        if self.injected_at is None:
            self.injected_at = now
        self.modes.append(mode)

    def fail_slow(self, factor: float, now: float) -> None:
        if factor <= 1.0:
            raise ValueError("fail-slow factor must be > 1")
        self.slow_factor = factor
        self._mark("fail-slow", now)

    def hang(self, now: float) -> None:
        self.hung = True
        self._mark("hang", now)

    def zombify(self, now: float) -> None:
        self.zombie = True
        self._mark("zombie", now)

    def leak(self, rate_per_s: float, now: float) -> None:
        if rate_per_s <= 0:
            raise ValueError("leak rate must be positive")
        self.leak_rate = rate_per_s
        self.leak_started_at = now
        self._mark("leak", now)

    def corrupt_output(self, now: float) -> None:
        self.corrupt = True
        self._mark("corrupt-output", now)

    # -- queries ------------------------------------------------------------

    def inflation(self, now: float) -> float:
        """Combined service-time multiplier at simulated time ``now``."""
        factor = self.slow_factor
        if self.leak_rate > 0.0:
            factor *= 1.0 + self.leak_rate * max(
                0.0, now - self.leak_started_at)
        return factor

    @property
    def is_gray(self) -> bool:
        return bool(self.modes)

    def describe(self) -> str:
        return "+".join(self.modes) if self.modes else "healthy"

    def __repr__(self) -> str:
        return f"<GrayState {self.describe()}>"
