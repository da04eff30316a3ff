"""The system monitor (Section 3.1.7), minus the Tk canvas.

"Components of the system report state information to the monitor using
a multicast group ... The monitor can page or email the system operator
if a serious error occurs, for example, if it stops receiving reports
from some component."

This monitor records everything it hears — which makes it the data
source for Figure 8's queue-length-over-time series — raises
:class:`Alert` records on component silence, and renders an ASCII status
panel in place of the original Tcl/Tk visualization (the information
content is the same; see DESIGN.md "Out of scope").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.component import Component
from repro.core.config import SNSConfig
from repro.core.messages import BEACON_GROUP, MONITOR_GROUP, ManagerBeacon
from repro.sim.cluster import Cluster
from repro.sim.node import Node


@dataclass
class Alert:
    """An operator page/email."""

    time: float
    severity: str        # "page" (serious) or "notice"
    component: str
    message: str


@dataclass
class QueueSample:
    """One worker's queue average at one beacon time (Figure 8 data)."""

    time: float
    worker_name: str
    worker_type: str
    queue_avg: float


class Monitor(Component):
    """Listens to everything; alerts on silence; keeps time series."""

    kind = "monitor"

    def __init__(self, cluster: Cluster, node: Node, name: str,
                 config: SNSConfig,
                 on_alert: Optional[Callable[[Alert], None]] = None,
                 silence_threshold_s: float = 5.0) -> None:
        super().__init__(cluster, node, name)
        self.config = config
        self.on_alert = on_alert
        self.silence_threshold_s = silence_threshold_s
        self.last_seen: Dict[str, float] = {}
        self._silenced: Dict[str, bool] = {}
        #: components under planned maintenance (hot upgrade): their
        #: silence is expected and must not page the operator.
        self._maintenance: set = set()
        self.alerts: List[Alert] = []
        self.queue_series: List[QueueSample] = []
        self.worker_counts: List[Tuple[float, int]] = []
        self.beacons_heard = 0

    def _start_processes(self) -> None:
        self.spawn(self._beacon_listener())
        self.spawn(self._report_listener())
        self.every(1.0, self._silence_check)

    def _beacon_listener(self):
        subscription = self.cluster.multicast.group(BEACON_GROUP).subscribe(
            self.name)
        try:
            while True:
                beacon: ManagerBeacon = yield subscription.get()
                self.beacons_heard += 1
                self._mark_seen(beacon.manager_id)
                self.worker_counts.append(
                    (self.env.now, len(beacon.adverts)))
                for advert in beacon.adverts.values():
                    self._mark_seen(advert.worker_name)
                    self.queue_series.append(QueueSample(
                        time=self.env.now,
                        worker_name=advert.worker_name,
                        worker_type=advert.worker_type,
                        queue_avg=advert.queue_avg,
                    ))
        finally:
            subscription.cancel()

    def _report_listener(self):
        subscription = self.cluster.multicast.group(MONITOR_GROUP).subscribe(
            self.name)
        try:
            while True:
                report = yield subscription.get()
                self._mark_seen(report.component)
        finally:
            subscription.cancel()

    def _mark_seen(self, component: str) -> None:
        self.last_seen[component] = self.env.now
        if self._silenced.pop(component, None):
            self._raise_alert("notice", component, "reporting again")

    def set_maintenance(self, component: str, on: bool) -> None:
        """Mark a component as deliberately disabled (hot upgrade,
        Section 2.1); suppresses silence pages until cleared."""
        if on:
            self._maintenance.add(component)
        else:
            self._maintenance.discard(component)
            # restart the silence clock so the component gets the full
            # grace period to come back
            if component in self.last_seen:
                self.last_seen[component] = self.env.now

    def _silence_check(self) -> None:
        for component, seen_at in list(self.last_seen.items()):
            if component in self._maintenance:
                continue
            silent_for = self.env.now - seen_at
            if silent_for > self.silence_threshold_s and \
                    not self._silenced.get(component):
                self._silenced[component] = True
                self._raise_alert(
                    "page", component,
                    f"no reports for {silent_for:.1f}s")

    def _raise_alert(self, severity: str, component: str,
                     message: str) -> None:
        alert = Alert(self.env.now, severity, component, message)
        self.alerts.append(alert)
        if self.on_alert is not None:
            self.on_alert(alert)

    # -- queries -----------------------------------------------------------------

    def pages(self) -> List[Alert]:
        return [alert for alert in self.alerts if alert.severity == "page"]

    def render(self) -> str:
        """ASCII status panel (the Tk display's information content)."""
        lines = [f"=== SNS monitor @ t={self.env.now:.1f}s ==="]
        for component in sorted(self.last_seen):
            age = self.env.now - self.last_seen[component]
            if component in self._maintenance:
                marker = "mm"  # planned maintenance (hot upgrade)
            elif self._silenced.get(component):
                marker = "!!"
            else:
                marker = "ok"
            lines.append(f"  [{marker}] {component:<28} "
                         f"last seen {age:5.1f}s ago")
        lines.append(f"  alerts: {len(self.pages())} pages, "
                     f"{len(self.alerts)} total")
        return "\n".join(lines)
