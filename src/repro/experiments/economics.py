"""Section 5.2: economic feasibility, fed by measured cache behaviour.

The paper's argument chains a performance measurement (a single machine
serves the whole dialup population), a cache measurement (>=50 % hit
rate), and a cost model.  This driver runs the cache study to get a
*measured* byte hit rate and plugs it into the
:class:`~repro.analysis.economics.EconomicModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.economics import EconomicModel
from repro.experiments.cache_hitrate import run_cache_size_sweep


@dataclass
class EconomicsResult:
    measured_byte_hit_rate: float
    report: Dict[str, float]     # EconomicModel.report() at that rate

    def render(self) -> str:
        report = self.report
        lines = [
            "Economic feasibility (Section 5.2)",
            f"  measured cache byte hit rate:  "
            f"{self.measured_byte_hit_rate:.0%} (paper assumes >=50%)",
            f"  subscribers per $5000 server:  {report['subscribers']:.0f}",
            f"  cost/subscriber/month:         "
            f"${report['cost_per_subscriber_per_month_usd']:.3f} "
            "(paper headline: $0.25 — see model docstring on the "
            "paper's arithmetic)",
            f"  cost/modem/month:              "
            f"${report['cost_per_modem_per_month_usd']:.2f}",
            f"  bandwidth savings/month:       "
            f"${report['monthly_bandwidth_savings_usd']:.0f} "
            "(paper: ~$3000)",
            f"  payback period:                "
            f"{report['payback_months']:.1f} months "
            "(paper: 'only two months')",
        ]
        return "\n".join(lines)


def run_economics(n_users: int = 400, n_requests: int = 30_000,
                  seed: int = 1997) -> EconomicsResult:
    study = run_cache_size_sweep(
        capacities_bytes=(256_000_000,),
        n_users=n_users, n_requests=n_requests, seed=seed)
    measured_byte_hit_rate = next(iter(study.byte_hit_rates.values()))
    model = EconomicModel(cache_byte_hit_rate=measured_byte_hit_rate)
    return EconomicsResult(measured_byte_hit_rate, model.report())
