"""The closed-loop brownout controller.

Each tick the controller samples three saturation signals:

* **queue delay** — the worst per-worker backlog estimate, queued
  items times the worker's observed service-time EWMA (the paper's
  own load metric, in seconds);
* **utilization** — the busiest front end's thread-pool occupancy;
* **shed ratio** — the fraction of this tick's arrivals the front
  ends refused.

Each signal is normalized by its target; **pressure** is the max.
While pressure sits at or above the enter threshold the controller
climbs the :mod:`~repro.degrade.ladder` one level per tick (with a
hold-down between escalations, like the manager's spawn damping, so a
single congested tick cannot slam the service to deadline-shedding);
once pressure stays at or below the exit threshold for a dwell of
consecutive calm ticks it steps back down one level.  Separate
enter/exit thresholds plus the dwell give the loop hysteresis — the
same cure :meth:`FrontEnd._should_shed` gets for its on/off flapping.

Components never get pushed state: they hold a reference to the
controller and *read* the boolean level properties
(:attr:`fidelity_reduced`, :attr:`serve_stale_active`, ...) on their
own request paths.  The controller is deterministic — signals are
pure functions of simulation state, and the tick process uses only
sim time — so degraded runs stay byte-identical under
``repro.fanout``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import (DEGRADE_DWELL_TICKS, DEGRADE_ENTER_PRESSURE,
                               DEGRADE_EXIT_PRESSURE, DEGRADE_HOLD_TICKS,
                               DEGRADE_QUEUE_TARGET_S, DEGRADE_SHED_TARGET,
                               DEGRADE_TICK_S)
from repro.degrade.ladder import LEVELS, MAX_LEVEL, level_name
from repro.transend.adaptation import DEFAULT_TIERS


class DegradationController:
    """Walks the degradation ladder under a pressure signal."""

    def __init__(self, cluster: Any, config: Any, fabric: Any,
                 signals: Optional[Callable[[], Tuple[float, float, float]]]
                 = None) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.config = config
        self.fabric = fabric
        #: injectable (queue_delay_s, utilization, shed_ratio) source
        #: for tests; None = read the fabric.
        self._signals = signals
        self.level = 0
        #: the fidelity tier forced cluster-wide at level >= 1: the
        #: lowest-bandwidth tier of the adaptation ladder.
        self.forced_tier = DEFAULT_TIERS[0]
        self._calm_ticks = 0
        self._last_escalation_at: Optional[float] = None
        self._last_shed = 0
        self._last_received = 0
        self._level_entered_at = 0.0
        #: seconds spent at each ladder level (finalized by summary()).
        self.level_time: Dict[int, float] = {n: 0.0
                                             for n in range(len(LEVELS))}
        #: ladder transitions: {"at", "from", "to", "pressure"}.
        self.transitions: List[Dict[str, Any]] = []
        self.ticks = 0
        self.peak_pressure = 0.0
        self.peak_level = 0

    # -- level predicates (read by components on their request paths) ----

    @property
    def fidelity_reduced(self) -> bool:
        return self.level >= 1

    @property
    def serve_stale_active(self) -> bool:
        return self.level >= 2

    @property
    def relaxed_reads_active(self) -> bool:
        return self.level >= 3

    @property
    def priority_admission_active(self) -> bool:
        return self.level >= 4

    @property
    def deadline_shed_active(self) -> bool:
        return self.level >= 5

    # -- control loop ----------------------------------------------------

    def start(self) -> "DegradationController":
        self._level_entered_at = self.env.now
        self.env.process(self._run())
        return self

    def _run(self):
        while True:
            yield self.env.timeout(DEGRADE_TICK_S)
            self._tick()

    def signals(self) -> Tuple[float, float, float]:
        """(queue_delay_s, frontend_utilization, shed_ratio this tick)."""
        if self._signals is not None:
            return self._signals()
        queue_delay = 0.0
        for stub in self.fabric.alive_workers():
            queue_delay = max(queue_delay,
                              stub.load * stub.service_ewma_s)
        utilization = 0.0
        shed = received = 0
        for frontend in self.fabric.frontends.values():
            if not frontend.alive:
                continue
            utilization = max(
                utilization,
                frontend.active_requests / self.config.frontend_threads)
            shed += frontend.shed
            received += frontend.requests_received
        tick_shed = shed - self._last_shed
        tick_received = received - self._last_received
        self._last_shed = shed
        self._last_received = received
        shed_ratio = (tick_shed / tick_received) if tick_received else 0.0
        return queue_delay, utilization, shed_ratio

    def pressure_of(self, queue_delay_s: float, utilization: float,
                    shed_ratio: float) -> float:
        """Normalize each signal by its target; pressure is the max."""
        return max(
            queue_delay_s / DEGRADE_QUEUE_TARGET_S,
            utilization / self.config.degrade_util_target,
            shed_ratio / DEGRADE_SHED_TARGET,
        )

    def _tick(self) -> None:
        self.ticks += 1
        pressure = self.pressure_of(*self.signals())
        self.peak_pressure = max(self.peak_pressure, pressure)
        if pressure >= DEGRADE_ENTER_PRESSURE:
            self._calm_ticks = 0
            if self.level < MAX_LEVEL and self._escalation_hold_clear():
                self._move(self.level + 1, pressure)
                self._last_escalation_at = self.env.now
        elif pressure <= DEGRADE_EXIT_PRESSURE:
            self._calm_ticks += 1
            if self.level > 0 \
                    and self._calm_ticks >= DEGRADE_DWELL_TICKS:
                self._move(self.level - 1, pressure)
                self._calm_ticks = 0
        else:
            # between exit and enter: hold the current level
            self._calm_ticks = 0

    def _escalation_hold_clear(self) -> bool:
        """Spawn-damping analogue: space successive escalations out by
        ``DEGRADE_HOLD_TICKS`` ticks, so one congested sample cannot
        slam the ladder to its top rung."""
        if self._last_escalation_at is None:
            return True
        hold_s = DEGRADE_HOLD_TICKS * DEGRADE_TICK_S
        return self.env.now - self._last_escalation_at >= hold_s

    def _move(self, new_level: int, pressure: float) -> None:
        now = self.env.now
        self.level_time[self.level] += now - self._level_entered_at
        self.transitions.append({
            "at": round(now, 6),
            "from": level_name(self.level),
            "to": level_name(new_level),
            "pressure": round(pressure, 4),
        })
        self.level = new_level
        self._level_entered_at = now
        self.peak_level = max(self.peak_level, new_level)

    # -- reporting -------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        level_time = dict(self.level_time)
        level_time[self.level] += self.env.now - self._level_entered_at
        return {
            "level": self.level,
            "peak_level": self.peak_level,
            "peak_pressure": round(self.peak_pressure, 4),
            "ticks": self.ticks,
            "transitions": list(self.transitions),
            "level_time": {level_name(n): round(t, 3)
                           for n, t in level_time.items() if t > 0
                           or n == 0},
        }
