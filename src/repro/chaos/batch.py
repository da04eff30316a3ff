"""Campaign batches: many seeded runs of one campaign, fanned out.

A single campaign run answers "did the invariants hold under this fault
schedule for this seed?".  A **batch** answers the robustness question
the paper's operators actually cared about: does it hold across many
seeds — and it is embarrassingly parallel, so the batch shards one run
per seed through :mod:`repro.fanout`.  Seeds are deterministic: run 0
uses the master seed (so a one-run batch reproduces the classic single
run), run *k* derives ``chaos:<campaign>:run<k>`` from the master seed.

Merging folds the per-run :class:`~repro.chaos.report.ChaosReport`
objects in run order: summed request/yield tallies, summed fault-path
counters, exactly-pooled latency percentiles
(:func:`repro.fanout.merge.merge_latency`), and the batch's own harvest
fraction — a crashed run degrades the batch, it does not sink it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.chaos.campaign import CampaignRunner, get_campaign
from repro.chaos.report import ChaosReport
from repro.fanout import (
    ShardResult,
    ShardSpec,
    merge_latency,
    run_sharded,
    sum_counters,
)
from repro.sim.rng import derive_seed

__all__ = ["CampaignBatchReport", "batch_seeds", "run_campaign_batch",
           "run_campaign_shard"]


def run_campaign_shard(name: str, seed: int,
                       overrides: Optional[Mapping[str, Any]] = None
                       ) -> ChaosReport:
    """One batch unit: build and run ``name`` under ``seed``, with
    ``overrides`` laid over its config (:func:`get_campaign`).

    Module-level so :class:`ShardSpec` can pickle it into worker
    processes.
    """
    return CampaignRunner(get_campaign(name, overrides), seed=seed).run()


def batch_seeds(name: str, master_seed: int, runs: int) -> List[int]:
    """The deterministic seed list for a batch: the master seed first
    (a one-run batch is the classic single run), then derived seeds."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    return [master_seed] + [
        derive_seed(master_seed, f"chaos:{name}:run{index}")
        for index in range(1, runs)
    ]


@dataclass
class CampaignBatchReport:
    """Everything a batch of campaign runs produced.

    ``runs`` holds one :class:`~repro.fanout.ShardResult` per seed in
    batch order; failed shards carry the error instead of a report.
    Rendering includes nothing wall-clock- or jobs-dependent, so the
    report is byte-identical at any parallelism.
    """

    campaign: str
    description: str
    master_seed: int
    seeds: List[int]
    runs: List[ShardResult] = field(default_factory=list)

    @property
    def reports(self) -> List[ChaosReport]:
        """Reports of the runs that completed, in batch order."""
        return [run.value for run in self.runs if run.ok]

    @property
    def harvest(self) -> float:
        """Fraction of runs that produced a report (the runner's own
        graceful-degradation measure)."""
        if not self.runs:
            return 1.0
        return sum(1 for run in self.runs if run.ok) / len(self.runs)

    @property
    def violations(self) -> int:
        return sum(len(report.violations) for report in self.reports)

    @property
    def ok(self) -> bool:
        """Every run completed and every invariant held."""
        return self.harvest == 1.0 and all(
            report.ok for report in self.reports)

    # -- folded aggregates --------------------------------------------------

    @property
    def submitted(self) -> int:
        return sum(report.submitted for report in self.reports)

    @property
    def answered(self) -> int:
        return sum(report.answered for report in self.reports)

    @property
    def overall_yield(self) -> float:
        submitted = self.submitted
        return self.answered / submitted if submitted else 1.0

    def merged_latency(self):
        return merge_latency(
            report.latency_stats for report in self.reports)

    def merged_counters(self) -> Dict[str, int]:
        return sum_counters(report.counters for report in self.reports)

    def render(self, verbose: bool = False) -> str:
        """Batch summary; ``verbose`` appends every run's full report."""
        lines = [
            f"campaign batch  {self.campaign} x {len(self.runs)} "
            f"(master seed {self.master_seed})",
            f"                {self.description}",
        ]
        for run, seed in zip(self.runs, self.seeds):
            if run.ok:
                report = run.value
                verdict = ("ok" if report.ok
                           else f"VIOLATIONS({len(report.violations)})")
                healing = ""
                if report.recovery_cases:
                    healed = sum(1 for case in report.recovery_cases
                                 if case.healed)
                    healing = (f" healed {healed}/"
                               f"{len(report.recovery_cases)}")
                lines.append(
                    f"  run {run.index}  seed {seed:<20} {verdict:<14} "
                    f"yield {report.overall_yield:.3f}  "
                    f"harvest {report.overall_harvest:.3f}{healing}")
            else:
                lines.append(
                    f"  run {run.index}  seed {seed:<20} FAILED: "
                    f"{run.error}")
        completed = sum(1 for run in self.runs if run.ok)
        lines.append(
            f"batch harvest   {completed}/{len(self.runs)} run(s) "
            f"completed ({self.harvest:.3f})")
        if self.reports:
            latency = self.merged_latency()
            lines.append(
                f"aggregate       yield {self.overall_yield:.3f} over "
                f"{self.submitted} requests; latency p50 "
                f"{latency.p50:.2f}s p95 {latency.p95:.2f}s p99 "
                f"{latency.p99:.2f}s (pooled over runs)")
            interesting = {name: value for name, value
                           in self.merged_counters().items() if value}
            if interesting:
                lines.append("counters        " + ", ".join(
                    f"{name}={value}"
                    for name, value in interesting.items()))
        lines.append("verdict         " + (
            "OK" if self.ok else
            f"DEGRADED: {len(self.runs) - completed} failed run(s), "
            f"{self.violations} violation(s)"))
        if verbose:
            for run, seed in zip(self.runs, self.seeds):
                if run.ok:
                    lines.append("")
                    lines.append(f"--- run {run.index} (seed {seed}) ---")
                    lines.append(run.value.render())
        return "\n".join(lines)


def run_campaign_batch(name: str, master_seed: int = 1997,
                       runs: int = 1, jobs: int = 1, *,
                       overrides: Optional[Mapping[str, Any]] = None,
                       timeout_s: Optional[float] = None,
                       retries: int = 0,
                       progress=None) -> CampaignBatchReport:
    """Run ``runs`` seeded repetitions of campaign ``name`` across
    ``jobs`` worker processes and fold the reports.  Every run lays
    ``overrides`` over the campaign's config (:func:`get_campaign`).

    ``progress`` (see :func:`repro.fanout.run_sharded`) receives each
    finished run as it lands — the long-sweep observability hook the
    CLI wires to stderr.
    """
    campaign = get_campaign(name)   # validate the name up front
    seeds = batch_seeds(name, master_seed, runs)
    specs = [
        ShardSpec(shard_id=f"{name}#run{index}:seed={seed}",
                  fn=run_campaign_shard,
                  args=(name, seed, overrides))
        for index, seed in enumerate(seeds)
    ]
    sweep = run_sharded(specs, jobs=jobs, timeout_s=timeout_s,
                        retries=retries, progress=progress)
    return CampaignBatchReport(
        campaign=campaign.name,
        description=campaign.description,
        master_seed=master_seed,
        seeds=seeds,
        runs=sweep.results,
    )
