"""Fault injection: the experimenter's kill switch.

Section 4.5's headline fault-tolerance result ("we manually killed the
first two distillers, causing the load on the remaining distiller to
rapidly increase...") is driven here: the :class:`FaultInjector` schedules
kills of components at chosen simulated times, or randomly with a
configurable mean time between failures.

A *killable* is anything with a ``name`` attribute and a ``kill()``
method; all SNS components satisfy this protocol.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.sim.kernel import Environment
from repro.sim.rng import Stream


class FaultRecord:
    """One injected fault, for post-run reporting."""

    def __init__(self, time: float, kind: str, target: str) -> None:
        self.time = time
        self.kind = kind
        self.target = target

    def __repr__(self) -> str:
        return f"<Fault {self.kind} {self.target} @ {self.time:.2f}s>"


class FaultInjector:
    """Schedules component kills and node crashes."""

    def __init__(self, env: Environment,
                 rng: Optional[Stream] = None) -> None:
        self.env = env
        self.rng = rng
        self.log: List[FaultRecord] = []

    def _validate_time(self, time: float, kind: str) -> None:
        """Past-time arguments are caller bugs: reject them *here*, at
        schedule time, where the caller can catch the ValueError —
        raising inside the spawned process would surface only as an
        unhandled simulation error at run time."""
        if time < self.env.now:
            raise ValueError(
                f"{kind} time {time} is in the past "
                f"(now {self.env.now})")

    # -- scheduled, deterministic faults -------------------------------------

    def kill_at(self, time: float, target: Any) -> None:
        """Kill ``target`` (a component with ``kill()``) at ``time``."""
        self._validate_time(time, "kill")
        self.env.process(self._kill_later(time, target))

    def _kill_later(self, time: float, target: Any):
        yield self.env.timeout(max(0.0, time - self.env.now))
        self._kill(target)

    def partition_at(self, time: float, target: Any,
                     duration_s: float) -> None:
        """Cut ``target`` (anything with ``partition(duration_s)``) off
        the network at ``time`` — the Section 2.2.4 SAN-partition fault."""
        self._validate_time(time, "partition")
        self.env.process(self._partition_later(time, target, duration_s))

    def _partition_later(self, time: float, target: Any,
                         duration_s: float):
        yield self.env.timeout(max(0.0, time - self.env.now))
        target.partition(duration_s)
        self.log.append(FaultRecord(
            self.env.now, "partition",
            getattr(target, "name", repr(target))))

    def rolling_kills(self, targets_provider: Callable[[], List[Any]],
                      start: float, period_s: float,
                      stop_at: float) -> None:
        """Kill one target every ``period_s`` seconds between ``start``
        and ``stop_at`` — the deterministic crash-restart churn loop
        (random_kills' seeded cousin, for reproducible campaigns)."""
        self._validate_time(start, "rolling-kill start")
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.env.process(self._rolling_kill_loop(
            targets_provider, start, period_s, stop_at))

    def _rolling_kill_loop(self, targets_provider, start: float,
                           period_s: float, stop_at: float):
        yield self.env.timeout(max(0.0, start - self.env.now))
        index = 0
        while self.env.now + period_s <= stop_at:
            yield self.env.timeout(period_s)
            targets = [t for t in targets_provider() if t is not None]
            if not targets:
                continue
            # round-robin, not random: reproducible without an RNG
            self._kill(targets[index % len(targets)])
            index += 1

    # -- random faults --------------------------------------------------------

    def random_kills(self, targets_provider: Callable[[], List[Any]],
                     mtbf_s: float, stop_at: float) -> None:
        """Kill a random live component every ~``mtbf_s`` seconds.

        ``targets_provider`` is called at each fault time so newly spawned
        (or restarted) components are eligible — the whole point of the
        paper's fault model is that the population churns.
        """
        if self.rng is None:
            raise ValueError("random faults require an RNG stream")
        self.env.process(
            self._random_kill_loop(targets_provider, mtbf_s, stop_at))

    def _random_kill_loop(self, targets_provider, mtbf_s: float,
                          stop_at: float):
        while True:
            gap = self.rng.exponential(mtbf_s)
            if self.env.now + gap > stop_at:
                return
            yield self.env.timeout(gap)
            targets = [t for t in targets_provider() if t is not None]
            if not targets:
                continue
            self._kill(self.rng.choice(targets))

    # -- internals --------------------------------------------------------------

    def kill_now(self, target: Any) -> None:
        """Kill ``target`` immediately, logging the fault (used by the
        chaos campaign layer, which resolves victims at fire time)."""
        self._kill(target)

    def _kill(self, target: Any) -> None:
        name = getattr(target, "name", repr(target))
        target.kill()
        self.log.append(FaultRecord(self.env.now, "kill", name))
