"""Front-end state accounting (Section 4.4).

"The number of simultaneous, outstanding requests at a front end is
equal to N x T, where N is the number of requests arriving per second,
and T is the average service time of a request.  A high cache miss
penalty implies that T will be large.  Because two TCP connections ...
and one thread context are maintained in the front end for each
outstanding request ... front ends are vulnerable to state management
and context switching overhead.  As an example, for offered loads of 15
requests per second to a front end, we have observed 150-350 outstanding
requests and therefore up to 700 open TCP connections and 300 active
thread contexts."

The driver measures exactly this: offered load at a single front end,
with request residence dominated by wide-area misses and modem-side
delivery, sampled outstanding requests, the derived TCP-connection and
thread counts, and a Little's-law consistency check.  The hot-cache arm
is the contrast: with misses gone, the same offered load needs an order
of magnitude less front-end state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.metrics import LatencyStats
from repro.cache.latency import HarvestLatencyModel
from repro.core.config import SNSConfig
from repro.sim.rng import RandomStreams
from repro.transend.service import TranSend
from repro.workload.playback import PlaybackEngine
from repro.workload.trace import TraceRecord

#: the client's 28.8 kbit/s modem, in bytes per second: the response
#: drains over it while the front-end connection stays open
MODEM_28_8_BPS = 28_800 / 8

#: the cold arm's miss model, the paper's 1997 wide area: their "150-350
#: outstanding at 15 req/s" implies a 10-23 s mean residence, i.e. a
#: much heavier miss tail than a modern link
WIDE_AREA_1997_MISS_MIN_S = 3.0
WIDE_AREA_1997_MISS_ALPHA = 1.02


@dataclass
class FrontEndStateArm:
    label: str
    offered_rps: float
    mean_outstanding: float
    peak_outstanding: int
    mean_residence_s: float
    littles_law_prediction: float
    peak_tcp_connections: int
    peak_threads: int


@dataclass
class FrontEndStateResult:
    cold: FrontEndStateArm
    hot: FrontEndStateArm

    def render(self) -> str:
        def block(arm: FrontEndStateArm) -> str:
            return (
                f"  {arm.label}: outstanding mean "
                f"{arm.mean_outstanding:.0f} / peak "
                f"{arm.peak_outstanding} "
                f"(N*T predicts {arm.littles_law_prediction:.0f}); "
                f"peak TCP connections {arm.peak_tcp_connections}, "
                f"thread contexts {arm.peak_threads}"
            )

        return ("Front-end state at "
                f"{self.cold.offered_rps:.0f} req/s (Section 4.4; "
                "paper observed 150-350 outstanding, up to 700 TCP "
                "connections)\n"
                + block(self.cold) + "\n" + block(self.hot))


def _run_arm(label: str, unique_urls: bool, rate_rps: float,
             duration_s: float, seed: int,
             wide_area_1997: bool) -> FrontEndStateArm:
    transend = TranSend(
        n_nodes=10, seed=seed,
        config=SNSConfig(dispatch_timeout_s=120.0,
                         frontend_connection_overhead_s=0.002,
                         frontend_threads=2000))
    transend.start(initial_workers={"jpeg-distiller": 3})
    if wide_area_1997:
        # a checked model on the origin's own stream, which no draw has
        # touched yet; the origin binds its draw once, so rebind it
        origin = transend.origin
        origin.latency = HarvestLatencyModel(
            transend.cluster.streams.stream("miss-penalty"),
            miss_min_s=WIDE_AREA_1997_MISS_MIN_S,
            miss_alpha=WIDE_AREA_1997_MISS_ALPHA)
        origin._miss_penalty = origin.latency.miss_penalty
    env = transend.cluster.env
    frontend = transend.fabric.alive_frontends()[0]

    # modem-side delivery holds the front-end connection open while the
    # client drains the response
    modem_busy: Dict[str, float] = {}

    def submit(record):
        final = env.event()
        inner = transend.submit(record)

        def deliver(env):
            response = yield inner
            start = max(env.now, modem_busy.get(record.client_id, 0.0))
            transfer = response.size_bytes / MODEM_28_8_BPS
            modem_busy[record.client_id] = start + transfer
            yield env.timeout((start - env.now) + transfer)
            if not final.triggered:
                final.succeed(response)

        env.process(deliver(env))
        return final

    engine = PlaybackEngine(env, submit,
                            rng=RandomStreams(seed).stream(f"fe-{label}"),
                            timeout_s=600.0)
    n = int(rate_rps * duration_s * 1.2)
    pool = [
        TraceRecord(
            0.0, f"client{index % 400}",
            (f"http://site/u{index}.jpg" if unique_urls
             else f"http://site/hot{index % 20}.jpg"),
            "image/jpeg", 10240)
        for index in range(n)
    ]
    env.process(engine.constant_rate(rate_rps, duration_s, pool))

    samples: List[int] = []

    def sampler(env):
        while env.now < duration_s:
            yield env.timeout(1.0)
            samples.append(engine.in_flight)

    env.process(sampler(env))
    transend.run(until=duration_s + 300.0)
    latencies = LatencyStats().extend(engine.latencies())
    mean_outstanding = sum(samples) / len(samples) if samples else 0.0
    peak = max(samples) if samples else 0
    return FrontEndStateArm(
        label=label,
        offered_rps=rate_rps,
        mean_outstanding=mean_outstanding,
        peak_outstanding=peak,
        mean_residence_s=latencies.mean,
        littles_law_prediction=rate_rps * latencies.mean,
        # client<->FE plus FE<->cache partition per outstanding request
        peak_tcp_connections=2 * peak,
        peak_threads=peak,
    )


def run_frontend_state(rate_rps: float = 15.0,
                       duration_s: float = 300.0,
                       seed: int = 1997) -> FrontEndStateResult:
    return FrontEndStateResult(
        cold=_run_arm("cold cache (every request a 1997 wide-area miss)",
                      True, rate_rps, duration_s, seed,
                      wide_area_1997=True),
        hot=_run_arm("hot cache (working set resident)",
                     False, rate_rps, duration_s, seed,
                     wide_area_1997=False),
    )
