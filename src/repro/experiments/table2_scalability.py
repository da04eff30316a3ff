"""Table 2: the scalability experiment (Section 4.6).

The paper's protocol, automated: start with a minimal instance (one
front end, one distiller, the manager); raise offered load step by step;
when a component class saturates, add more of it — the manager spawns
distillers automatically, and the experiment controller adds a front end
when the front end saturates (the paper's operators did this by hand) —
and record, for each load level, the resource counts and which element
saturated.  The paper's findings to match in shape:

* ~23 requests/second per distiller;
* ~70-87 requests/second per front end before its Ethernet/TCP path
  saturates;
* nearly perfectly linear growth: resources added scale linearly with
  offered load, and the interior SAN never saturates at 100 Mb/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.reporting import render_table
from repro.core.config import SNSConfig
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from repro.experiments._harness import build_bench_fabric, jpeg_pool

PAPER_PER_DISTILLER_RPS = 23.0
PAPER_PER_FRONTEND_RPS = 70.0


@dataclass
class Table2Row:
    rate_rps: float
    completed_rps: float
    n_frontends: int
    n_distillers: int
    saturated: str


@dataclass
class Table2Result:
    rows: List[Table2Row]
    per_distiller_rps: float
    per_frontend_rps: float
    san_utilization_peak: float

    def render(self) -> str:
        table = render_table(
            ["offered req/s", "served req/s", "# front ends",
             "# distillers", "element that saturated"],
            [[f"{row.rate_rps:.0f}", f"{row.completed_rps:.1f}",
              row.n_frontends, row.n_distillers, row.saturated]
             for row in self.rows],
            title="Table 2 — scalability experiment",
        )
        notes = (
            f"\nper-distiller throughput: {self.per_distiller_rps:.1f} "
            f"req/s (paper: ~{PAPER_PER_DISTILLER_RPS:.0f})\n"
            f"per-front-end ceiling: {self.per_frontend_rps:.1f} req/s "
            f"(paper: ~{PAPER_PER_FRONTEND_RPS:.0f}-87)\n"
            f"peak interior SAN utilization: "
            f"{self.san_utilization_peak:.1%} (paper: never saturated)"
        )
        return table + notes


def run_table2(
    rates: Sequence[float] = tuple(range(10, 161, 15)),
    step_duration_s: float = 25.0,
    seed: int = 1997,
) -> Table2Result:
    config = SNSConfig(spawn_threshold=10.0, spawn_damping_s=10.0,
                       dispatch_timeout_s=8.0)
    fabric = build_bench_fabric(n_nodes=30, seed=seed, config=config)
    fabric.boot(n_frontends=1, initial_workers={"jpeg-distiller": 1})
    env = fabric.cluster.env
    fabric.cluster.run(until=2.0)

    pool = jpeg_pool(50)
    rows: List[Table2Row] = []
    san_peak = 0.0
    rng = RandomStreams(seed).stream("table2-playback")

    for rate in rates:
        engine = PlaybackEngine(env, fabric.submit, rng=rng,
                                timeout_s=60.0)
        n_distillers_at_start = len(
            fabric.alive_workers("jpeg-distiller"))
        env.process(engine.constant_rate(rate, step_duration_s, pool))
        # run the step plus drain time
        fabric.cluster.run(until=env.now + step_duration_s)
        completed_rps = len(engine.completed()) / step_duration_s
        n_frontends_before = len(fabric.alive_frontends())
        n_distillers = len(fabric.alive_workers("jpeg-distiller"))
        saturated = []
        fe_saturated = any(frontend.is_saturated()
                           for frontend in fabric.alive_frontends())
        # the distillers saturated during this step iff the manager had
        # to spawn more of them (or their queues are still over H now)
        if (n_distillers > n_distillers_at_start
                or _average_queue(fabric)
                >= config.spawn_threshold * 0.8):
            saturated.append("distillers")
        if fe_saturated:
            saturated.append("FE Ethernet")
        san_util = fabric.cluster.network.san.utilization()
        san_peak = max(san_peak, san_util)
        if san_util > 0.9:
            saturated.append("SAN")
        rows.append(Table2Row(
            rate_rps=rate,
            completed_rps=completed_rps,
            n_frontends=n_frontends_before,
            n_distillers=n_distillers,
            saturated=" & ".join(saturated) if saturated else "-",
        ))
        # the operator's move: a saturated front end means "spawn a new
        # front end" before the next load level
        if fe_saturated:
            fabric.start_frontend()
            fabric.cluster.run(until=env.now + 2.0)

    final = rows[-1]
    per_distiller = (final.completed_rps / final.n_distillers
                     if final.n_distillers else 0.0)
    # per-FE ceiling: the highest served rate any single-FE row reached
    single_fe_rates = [row.completed_rps for row in rows
                       if row.n_frontends == 1]
    per_frontend = max(single_fe_rates) if single_fe_rates else 0.0
    return Table2Result(
        rows=rows,
        per_distiller_rps=per_distiller,
        per_frontend_rps=per_frontend,
        san_utilization_peak=san_peak,
    )


def _average_queue(fabric) -> float:
    workers = fabric.alive_workers("jpeg-distiller")
    if not workers:
        return 0.0
    return sum(stub.load for stub in workers) / len(workers)
