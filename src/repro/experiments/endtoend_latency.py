"""The headline claim: 3-5x end-to-end latency reduction.

"Real-time, datatype-specific distillation and refinement of inline Web
images results in an end-to-end latency reduction by a factor of 3-5,
giving the user a much more responsive Web surfing experience with only
modest image quality degradation" (Section 1.1).

End-to-end latency for a dialup user is dominated by the modem: a 10 KB
image takes ~2.8 s at 28.8 kbit/s.  Distillation spends tens of
milliseconds of cluster CPU to shrink that to ~1 KB, so the modem leg
collapses.  This driver runs the same image workload through TranSend
twice — distillation on and off — and delivers every response over each
client's modem, measuring true end-to-end latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.metrics import LatencyStats
from repro.core.config import SNSConfig
from repro.sim.rng import RandomStreams
from repro.transend.service import TranSend
from repro.workload.playback import PlaybackEngine
from repro.workload.tracegen import DocumentUniverse, TraceGenerator

#: the Berkeley modem bank's two speeds, 14.4 and 28.8 kbit/s, in bytes
#: per second
MODEM_14_4_BPS = 14_400 / 8
MODEM_28_8_BPS = 28_800 / 8

PAPER_REDUCTION_LOW = 3.0
PAPER_REDUCTION_HIGH = 5.0


@dataclass
class EndToEndResult:
    distilled_mean_s: float
    distilled_p90_s: float
    original_mean_s: float
    original_p90_s: float
    mean_reduction: float
    bytes_over_modems_distilled: int
    bytes_over_modems_original: int

    def render(self) -> str:
        return (
            "End-to-end latency over the modem bank (the Section 1.1 "
            "headline)\n"
            f"  without TranSend: mean {self.original_mean_s:.2f}s, "
            f"p90 {self.original_p90_s:.2f}s, "
            f"{self.bytes_over_modems_original / 1e6:.1f} MB to modems\n"
            f"  with TranSend:    mean {self.distilled_mean_s:.2f}s, "
            f"p90 {self.distilled_p90_s:.2f}s, "
            f"{self.bytes_over_modems_distilled / 1e6:.1f} MB to modems\n"
            f"  latency reduction: {self.mean_reduction:.1f}x "
            f"(paper: {PAPER_REDUCTION_LOW:.0f}-"
            f"{PAPER_REDUCTION_HIGH:.0f}x)"
        )


class ModemDelivery:
    """Playback adapter that appends the modem leg to every response.

    Clients alternate between the bank's 14.4 and 28.8 kbit/s modems;
    each client's modem is a serial pipe (their next click queues behind
    the current transfer, as real modems do).
    """

    def __init__(self, transend: TranSend) -> None:
        self.transend = transend
        self._modem_busy_until: Dict[str, float] = {}
        self.bytes_delivered = 0

    def modem_bps(self, client_id: str) -> float:
        index = int(client_id.replace("client", "") or 0)
        return MODEM_14_4_BPS if index % 2 == 0 else MODEM_28_8_BPS

    def submit(self, record):
        env = self.transend.cluster.env
        final = env.event()
        root = None
        tracer = env.tracer
        if tracer is not None:
            # peek (not take): the front end downstream consumes the
            # hand-off; we only want the root to hang the modem span on
            pending = tracer.peek_pending()
            if tracer.was_handed_off(pending):
                root = pending
        inner = self.transend.submit(record)
        env.process(self._deliver(record, inner, final, root))
        return final

    def _deliver(self, record, inner, final, root=None):
        env = self.transend.cluster.env
        response = yield inner
        bandwidth = self.modem_bps(record.client_id)
        mark = env.now
        start = max(env.now,
                    self._modem_busy_until.get(record.client_id, 0.0))
        transfer = response.size_bytes / bandwidth
        self._modem_busy_until[record.client_id] = start + transfer
        self.bytes_delivered += response.size_bytes
        yield env.timeout((start - env.now) + transfer)
        if root is not None:
            root.record("modem", "client", mark,
                        annotations={"bytes": response.size_bytes,
                                     "bps": int(bandwidth)})
        if not final.triggered:
            final.succeed(response)


def _run_arm(distill: bool, n_requests: int, seed: int):
    transend = TranSend(
        n_nodes=10, seed=seed,
        config=SNSConfig(dispatch_timeout_s=8.0,
                         frontend_connection_overhead_s=0.002))
    transend.start(initial_workers={"jpeg-distiller": 2,
                                    "gif-distiller": 2})
    streams = RandomStreams(seed)
    generator = TraceGenerator(
        seed=seed, n_users=40, mean_rate_rps=4.0,
        with_daily_cycle=False, with_bursts=False,
        universe=DocumentUniverse(
            streams.stream("e2e-universe"), n_shared_docs=300,
            shared_fraction=0.8))
    # the full browsing mix: HTML, small icons, and undistillable
    # content ride along unshrunk, exactly as in real surfing — the
    # 3-5x claim is about the overall experience, not one image
    records = generator.generate(n_requests / 4.0)
    if not distill:
        for index in range(40):
            transend.set_preference(f"client{index}",
                                    "distill_images", False)
    delivery = ModemDelivery(transend)
    engine = PlaybackEngine(transend.cluster.env, delivery.submit,
                            rng=streams.stream("e2e-playback"),
                            timeout_s=600.0)
    transend.cluster.env.process(engine.play(records))
    transend.run(until=n_requests / 4.0 + 600.0)
    stats = LatencyStats().extend(engine.latencies())
    return stats, delivery.bytes_delivered


def run_endtoend(n_requests: int = 400, seed: int = 1997
                 ) -> EndToEndResult:
    with_distillation, bytes_distilled = _run_arm(True, n_requests, seed)
    without, bytes_original = _run_arm(False, n_requests, seed)
    return EndToEndResult(
        distilled_mean_s=with_distillation.mean,
        distilled_p90_s=with_distillation.percentile(0.9),
        original_mean_s=without.mean,
        original_p90_s=without.percentile(0.9),
        mean_reduction=(without.mean / with_distillation.mean
                        if with_distillation.mean else 0.0),
        bytes_over_modems_distilled=bytes_distilled,
        bytes_over_modems_original=bytes_original,
    )
