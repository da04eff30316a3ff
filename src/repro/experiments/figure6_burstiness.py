"""Figure 6: request-rate burstiness across three time scales.

The paper buckets a day of dialup traffic at 2 minutes (avg 5.8 req/s,
peak 12.6), 30 seconds (avg 5.6, peak 10.3 over a 3h20m slice), and
1 second (avg 8.1, peak 20 over 3m20s), and Section 4.2 derives the two
overflow-pool provisioning rules from the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.reporting import render_series, render_table
from repro.workload.burstiness import (
    bucket_counts,
    burstiness_report,
    overflow_line_for_fraction,
    utilization_line,
)
from repro.workload.trace import TraceRecord
from repro.workload.tracegen import TraceGenerator

#: Figure 6 caption values (scale seconds -> (avg, peak)).
PAPER_RATES = {120.0: (5.8, 12.6), 30.0: (5.6, 10.3), 1.0: (8.1, 20.0)}


@dataclass
class Figure6Result:
    duration_s: float
    report: Dict[float, Dict[str, float]]
    utilization_70pct_line: float
    overflow_5pct_line: float

    def render(self) -> str:
        rows = []
        for scale in sorted(self.report, reverse=True):
            stats = self.report[scale]
            paper = PAPER_RATES.get(scale, ("-", "-"))
            rows.append([
                f"{scale:g}s",
                paper[0], f"{stats['avg_rps']:.1f}",
                paper[1], f"{stats['peak_rps']:.1f}",
                f"{stats['dispersion']:.1f}",
            ])
        table = render_table(
            ["bucket", "paper avg", "avg req/s", "paper peak",
             "peak req/s", "dispersion"],
            rows,
            title=f"Figure 6 — burstiness over {self.duration_s / 3600:.1f}h "
                  "of synthetic dialup traffic",
        )
        notes = (
            "\nOverflow-pool provisioning (Section 4.2):\n"
            f"  dedicated pool for 70% utilization: "
            f"{self.utilization_70pct_line:.1f} tasks/s\n"
            f"  dedicated pool exceeded 5% of the time at: "
            f"{self.overflow_5pct_line:.1f} tasks/s"
        )
        return table + notes


#: the Berkeley dialup trace's mean request rate
MEAN_RATE_RPS = 5.8


def run_figure6(duration_s: float = 86_400.0,
                seed: int = 1997) -> Figure6Result:
    generator = TraceGenerator(seed=seed, mean_rate_rps=MEAN_RATE_RPS)
    records = generator.generate(duration_s)
    report = burstiness_report(records)
    counts = bucket_counts(records, 120.0)
    return Figure6Result(
        duration_s=duration_s,
        report=report,
        utilization_70pct_line=utilization_line(counts, 120.0, 0.70),
        overflow_5pct_line=overflow_line_for_fraction(counts, 120.0,
                                                      0.05),
    )
