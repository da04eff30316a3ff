"""MTTD/MTTR/availability accounting for gray-failure recovery.

A :class:`FaultCase` is the life of one injected gray failure: injected
→ detected (by which detector, after how long) → healed (by what
action, replaced by whom).  The :class:`RecoveryLedger` collects cases
plus the supervisor's non-fault events (false alarms, proactive
rejuvenations) and reduces them to the numbers a chaos report prints:
mean/max time-to-detect and time-to-repair, and the availability cost
of the outage windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class FaultCase:
    """One injected gray failure and its detection/heal timeline."""

    kind: str                 # "fail-slow" | "hang" | "zombie" | ...
    target: str               # worker name at injection time
    injected_at: float
    detected_at: Optional[float] = None
    detector: Optional[str] = None   # "probe" | "rpc-timeout" | ...
    detail: str = ""
    healed_at: Optional[float] = None
    heal_action: Optional[str] = None
    replacement: Optional[str] = None
    #: span-tree id when the run was traced (repro.obs).
    trace_id: Optional[str] = None

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    @property
    def healed(self) -> bool:
        return self.healed_at is not None

    @property
    def mttd(self) -> Optional[float]:
        """Injection-to-detection latency."""
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    @property
    def mttr(self) -> Optional[float]:
        """Detection-to-heal latency (replacement back in rotation)."""
        if self.detected_at is None or self.healed_at is None:
            return None
        return self.healed_at - self.detected_at

    def outage_s(self, end: float) -> float:
        """Seconds this component was failing, clamped to ``end``."""
        until = self.healed_at if self.healed_at is not None else end
        return max(0.0, min(until, end) - min(self.injected_at, end))

    def __repr__(self) -> str:
        if self.healed:
            tail = (f"detected {self.detected_at:.1f}s "
                    f"({self.detector}), healed {self.healed_at:.1f}s"
                    + (f" -> {self.replacement}" if self.replacement
                       else ""))
        elif self.detected:
            tail = f"detected {self.detected_at:.1f}s ({self.detector})" \
                   f", NOT healed"
        else:
            tail = "NOT detected"
        return (f"<FaultCase {self.kind} {self.target} "
                f"@{self.injected_at:.1f}s: {tail}>")


class RecoveryLedger:
    """Collects fault cases and reduces them for reporting."""

    def __init__(self, env: Any) -> None:
        self.env = env
        self.cases: List[FaultCase] = []
        #: detections with no matching injected fault: (time, target,
        #: detector) — supervision that fires on healthy components.
        self.false_alarms: List[Tuple[float, str, str]] = []
        #: proactive rejuvenation restarts: (time, target).
        self.rejuvenations: List[Tuple[float, str]] = []
        #: brick cheap-rejoin measurements noted by the supervisor:
        #: dicts with brick/slot/rejoin_s/cells_at_kill/sync_s.  The
        #: point of recording cells_at_kill next to rejoin_s is the
        #: claim itself: rejoin time must not grow with state size.
        self.rejoins: List[Dict[str, Any]] = []

    # -- event intake -------------------------------------------------------

    def inject(self, kind: str, target: str) -> FaultCase:
        case = FaultCase(kind=kind, target=target,
                         injected_at=self.env.now)
        self.cases.append(case)
        return case

    def note_detected(self, target: str, detector: str,
                      detail: str = "") -> Optional[FaultCase]:
        """Stamp the oldest undetected case for ``target``; a detection
        with no matching injection is recorded as a false alarm."""
        for case in self.cases:
            if case.target == target and case.detected_at is None:
                case.detected_at = self.env.now
                case.detector = detector
                case.detail = detail
                return case
        self.false_alarms.append((self.env.now, target, detector))
        return None

    def note_healed(self, case: FaultCase, action: str,
                    replacement: Optional[str] = None) -> None:
        if case.healed_at is None:
            case.healed_at = self.env.now
            case.heal_action = action
            case.replacement = replacement

    def note_rejuvenation(self, target: str) -> None:
        self.rejuvenations.append((self.env.now, target))

    def note_rejoin(self, record: Dict[str, Any]) -> None:
        """A respawned brick is serving again (the BrickCluster keeps
        the live dict and updates ``sync_s`` when repair completes)."""
        self.rejoins.append(record)

    # -- queries ------------------------------------------------------------

    @property
    def detected(self) -> List[FaultCase]:
        return [case for case in self.cases if case.detected]

    @property
    def healed(self) -> List[FaultCase]:
        return [case for case in self.cases if case.healed]

    def mttd_values(self) -> List[float]:
        return [case.mttd for case in self.cases if case.mttd is not None]

    def mttr_values(self) -> List[float]:
        return [case.mttr for case in self.cases if case.mttr is not None]

    def summary(self, duration_s: float,
                population: int) -> Dict[str, Any]:
        """Reduce to report numbers.  ``population`` is the nominal
        worker count the availability denominator uses — an outage of
        one worker out of three for 9s over a 90s run costs
        1 - 9/(90*3) ≈ 0.967 availability."""
        mttd = self.mttd_values()
        mttr = self.mttr_values()
        outage = sum(case.outage_s(duration_s) for case in self.cases)
        denominator = duration_s * max(1, population)
        rejoin = [r["rejoin_s"] for r in self.rejoins]
        return {
            "injected": len(self.cases),
            "detected": len(self.detected),
            "healed": len(self.healed),
            "false_alarms": len(self.false_alarms),
            "rejuvenations": len(self.rejuvenations),
            "mttd_mean": sum(mttd) / len(mttd) if mttd else None,
            "mttd_max": max(mttd) if mttd else None,
            "mttr_mean": sum(mttr) / len(mttr) if mttr else None,
            "mttr_max": max(mttr) if mttr else None,
            "outage_s": outage,
            "availability": 1.0 - outage / denominator,
            "rejoins": len(self.rejoins),
            "rejoin_mean_s": sum(rejoin) / len(rejoin) if rejoin
            else None,
            "rejoin_max_s": max(rejoin) if rejoin else None,
        }
