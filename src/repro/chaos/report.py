"""Harvest/yield availability reporting for chaos campaigns.

The paper frames availability as *harvest* and *yield* (Section 2.3.1):
yield is the fraction of submitted requests answered at all, harvest the
fraction of answers carrying the full-quality result rather than a BASE
approximation.  A :class:`ChaosReport` carries both as a per-beacon time
series alongside the fault timeline, the invariant checker's verdicts,
and the fault-path counters, so one object answers "did the soft-state
machinery hold, and what did availability cost while it did?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.metrics import (
    RECOVERY_TARGET,
    LatencyStats,
    harvest_yield_series,
    yield_recovery_time,
)
from repro.chaos.invariants import InvariantViolation
from repro.degrade.ladder import level_name as _ladder_name


@dataclass
class ChaosReport:
    """Everything one campaign run produced."""

    campaign: str
    description: str
    seed: int
    duration_s: float
    beacon_interval_s: float
    final_heal_s: float
    fault_timeline: List[Any] = field(default_factory=list)
    series: List[Dict[str, float]] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)
    recovery_s: Optional[float] = None
    convergence_s: Optional[float] = None
    reregistration_times: List[float] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    spawn_failures: List[Any] = field(default_factory=list)
    #: completed-request latency percentiles (LatencyStats.summary()).
    latency: Dict[str, float] = field(default_factory=dict)
    #: the raw accumulator behind :attr:`latency`, kept so campaign
    #: batches can pool samples exactly (LatencyStats.merge) instead of
    #: averaging percentiles; not rendered.
    latency_stats: Optional[LatencyStats] = None
    #: per-fault gray-failure cases (repro.recovery FaultCase objects).
    recovery_cases: List[Any] = field(default_factory=list)
    #: RecoveryLedger.summary() numbers: MTTD/MTTR, availability...
    recovery_summary: Dict[str, Any] = field(default_factory=dict)
    #: profile-path results when the campaign ran a profile backend:
    #: reads/availability, write counters, lost committed cells (the
    #: durability invariant), store stats, brick stats with rejoins.
    profile: Dict[str, Any] = field(default_factory=dict)
    #: SAN-partition results when the run installed a partition model:
    #: backend, wrong decisions, lease stalls, misroutes, stall time.
    partition: Dict[str, Any] = field(default_factory=dict)
    #: replicated-manager stats when the run used the consensus
    #: backend: elections, ballots, log length, lease handoffs, stalls.
    consensus: Dict[str, Any] = field(default_factory=dict)
    #: brownout-controller summary when the campaign ran the
    #: degradation ladder: peak level/pressure, transitions, and
    #: seconds spent at each ladder level.
    degradation: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No invariant violations."""
        return not self.violations

    @property
    def submitted(self) -> int:
        return int(sum(row["submitted"] for row in self.series))

    @property
    def answered(self) -> int:
        return int(sum(row["answered"] for row in self.series))

    @property
    def overall_yield(self) -> float:
        submitted = self.submitted
        return self.answered / submitted if submitted else 1.0

    @property
    def overall_harvest(self) -> float:
        answered = self.answered
        degraded = sum(row["degraded"] for row in self.series)
        return (answered - degraded) / answered if answered else 1.0

    @property
    def degraded_replies(self) -> int:
        """Answered below full quality: the harvest cost of degrading."""
        return int(sum(row["degraded"] for row in self.series))

    @property
    def shed_replies(self) -> int:
        """Refused by admission control: a deliberate yield cost,
        broken out from the generic error/timeout path."""
        return int(sum(row.get("shed", 0) for row in self.series))

    @property
    def recovered(self) -> bool:
        """Yield returned to the target after the final heal."""
        return self.recovery_s is not None

    @property
    def recovery_beacon_periods(self) -> Optional[float]:
        if self.recovery_s is None:
            return None
        return self.recovery_s / self.beacon_interval_s

    @property
    def all_gray_healed(self) -> bool:
        """Every injected gray failure was detected AND healed."""
        return all(case.healed for case in self.recovery_cases)

    def min_yield(self) -> float:
        return min((row["yield"] for row in self.series
                    if row["submitted"]), default=1.0)

    def _recovery_case_lines(self) -> List[str]:
        lines = []
        for case in self.recovery_cases:
            detect = (f"detected +{case.mttd:.1f}s ({case.detector})"
                      if case.mttd is not None else "NOT DETECTED")
            if case.mttr is not None:
                heal = f"healed +{case.mttr:.1f}s"
                if case.replacement:
                    heal += f" -> {case.replacement}"
            else:
                heal = "NOT HEALED"
            lines.append(f"{case.kind:<15} {case.target:<20} "
                         f"@{case.injected_at:5.1f}s  {detect:<28} "
                         f"{heal}")
        return lines

    def render(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            f"campaign   {self.campaign} (seed {self.seed})",
            f"           {self.description}",
            f"duration   {self.duration_s:.0f}s simulated, final heal "
            f"at {self.final_heal_s:.0f}s",
            f"requests   {self.submitted} submitted, {self.answered} "
            f"answered",
            f"yield      {self.overall_yield:.3f} overall, "
            f"{self.min_yield():.3f} at the worst beacon interval",
            f"harvest    {self.overall_harvest:.3f} of answers at full "
            f"quality",
        ]
        if self.degraded_replies or self.shed_replies:
            # the BASE ledger: degrading trades harvest (answers below
            # full quality), shedding trades yield (requests refused on
            # purpose) — keep the two costs visibly distinct
            lines.append(
                f"base       {self.degraded_replies} degraded "
                f"answer(s) (harvest loss), {self.shed_replies} "
                f"shed (deliberate yield loss)")
        if self.recovery_s is not None:
            lines.append(
                f"recovery   yield back over {RECOVERY_TARGET:.0%} "
                f"{self.recovery_s:.1f}s "
                f"({self.recovery_beacon_periods:.1f} beacon periods) "
                f"after the final heal")
        else:
            lines.append(
                f"recovery   yield never returned to "
                f"{RECOVERY_TARGET:.0%} after the final heal")
        if self.convergence_s is not None:
            lines.append(
                f"converge   manager view matched ground truth "
                f"{self.convergence_s:.1f}s after the final heal")
        if self.reregistration_times:
            worst = max(self.reregistration_times)
            lines.append(
                f"reregister {len(self.reregistration_times)} heal(s) "
                f"checked, slowest re-registration {worst:.1f}s")
        if self.recovery_cases:
            summary = self.recovery_summary
            parts = [f"{summary.get('healed', 0)}/"
                     f"{summary.get('injected', 0)} healed"]
            if summary.get("mttd_mean") is not None:
                parts.append(f"MTTD {summary['mttd_mean']:.1f}s mean / "
                             f"{summary['mttd_max']:.1f}s max")
            if summary.get("mttr_mean") is not None:
                parts.append(f"MTTR {summary['mttr_mean']:.1f}s mean / "
                             f"{summary['mttr_max']:.1f}s max")
            if summary.get("availability") is not None:
                parts.append(
                    f"availability {summary['availability']:.4f}")
            lines.append("healing    " + ", ".join(parts))
            for case_line in self._recovery_case_lines():
                lines.append("           " + case_line)
            if summary.get("false_alarms"):
                lines.append(f"           false alarms: "
                             f"{summary['false_alarms']}")
            if summary.get("rejuvenations"):
                lines.append(f"           rejuvenations: "
                             f"{summary['rejuvenations']}")
            if summary.get("rejoins"):
                lines.append(
                    f"           brick rejoins: {summary['rejoins']}, "
                    f"{summary['rejoin_mean_s']:.1f}s mean / "
                    f"{summary['rejoin_max_s']:.1f}s max to serving")
        if self.profile:
            profile = self.profile
            writes = profile.get("writes", {})
            lines.append(
                f"profile    backend={profile['backend']}  "
                f"reads {profile['reads']} "
                f"(availability {profile['read_availability']:.4f})  "
                f"writes {writes.get('committed', 0)}/"
                f"{writes.get('attempted', 0)} committed")
            lost = profile.get("lost_writes") or []
            if lost:
                lines.append(
                    f"           COMMITTED WRITES LOST: {len(lost)}")
            else:
                committed = profile.get("store", {}).get(
                    "committed_cells",
                    profile.get("store", {}).get("commits", 0))
                lines.append(
                    f"           committed-write loss: 0 "
                    f"(all {committed} committed cells verified)")
            for record in profile.get("bricks", {}).get("rejoins", []):
                sync = (f"synced +{record['sync_s']:.1f}s"
                        if record.get("sync_s") is not None
                        else "sync pending")
                lines.append(
                    f"           rejoin {record['brick']}: serving "
                    f"+{record['rejoin_s']:.1f}s "
                    f"({record['cells_at_kill']} cells at kill), "
                    f"{sync}")
        if self.partition:
            part = self.partition
            lines.append(
                f"partition  backend={part['backend']}  "
                f"wrong-decisions {part['wrong_decisions']}  "
                f"lease-stalls {part['lease_stalls']}  "
                f"misroutes {part['partition_misroutes']}")
            lines.append(
                f"           dispatch stalled "
                f"{part['dispatch_stall_s']:.1f}s, worst beacon gap "
                f"{part['failover_max_s']:.1f}s, blocked "
                f"{part['multicast_blocked']} multicasts / "
                f"{part['channel_blocked']} channel sends, "
                f"{part['deposed_managers']} deposed manager(s), "
                f"{part['stale_beacons_rejected']} stale beacon(s) "
                f"rejected")
        if self.consensus:
            cons = self.consensus
            lines.append(
                f"consensus  {cons['replicas']} replicas, "
                f"{cons['elections']} election(s), "
                f"{cons['lease_handoffs']} lease handoff(s), "
                f"max ballot {cons['max_ballot']}, "
                f"log length {cons['log_length']}")
            lines.append(
                f"           {cons['campaigns']} campaign(s), minority "
                f"stall {cons['minority_stall_s']:.1f}s")
            for regime in cons.get("regimes", []):
                lines.append(
                    f"           regime b{regime['ballot']} "
                    f"{regime['leader']} @{regime['at']:.1f}s after "
                    f"{regime['stalled_s']:.1f}s stall")
        if self.degradation:
            deg = self.degradation
            lines.append(
                f"degrade    peak level {deg['peak_level']} "
                f"({_ladder_name(deg['peak_level'])}), peak pressure "
                f"{deg['peak_pressure']:.2f}, "
                f"{len(deg['transitions'])} transition(s), ended at "
                f"level {deg['level']}")
            lines.append("           time at level: " + ", ".join(
                f"{name} {seconds:.1f}s"
                for name, seconds in deg["level_time"].items()))
            for move in deg["transitions"][:12]:
                lines.append(
                    f"           @{move['at']:6.1f}s {move['from']} -> "
                    f"{move['to']} (pressure {move['pressure']:.2f})")
        lines.append("faults     " + (", ".join(
            f"{record.kind} {record.target} @ {record.time:.0f}s"
            for record in self.fault_timeline) or "none recorded"))
        interesting = {name: value
                       for name, value in sorted(self.counters.items())
                       if value}
        if interesting:
            lines.append("counters   " + ", ".join(
                f"{name}={value}"
                for name, value in interesting.items()))
        if self.spawn_failures:
            lines.append("spawns     " + "; ".join(
                repr(failure) for failure in self.spawn_failures[:5]))
        if self.violations:
            lines.append(f"VIOLATIONS ({len(self.violations)}):")
            for violation in self.violations:
                lines.append(f"  - {violation!r}")
                if violation.span_tree:
                    lines.append(
                        f"    offending request {violation.trace_id}:")
                    lines.extend(
                        "      " + tree_line for tree_line
                        in violation.span_tree.splitlines())
        else:
            lines.append("invariants all held")
        return "\n".join(lines)


def build_report(campaign: Any, seed: int, faults: Any, engine: Any,
                 checker: Any, supervisor: Any = None,
                 profile: Optional[Dict[str, Any]] = None,
                 consensus: Optional[Dict[str, Any]] = None,
                 degradation: Optional[Dict[str, Any]] = None
                 ) -> ChaosReport:
    """Assemble the report from a finished campaign's pieces;
    ``faults`` is the :class:`~repro.chaos.campaign.Faults` its rows
    fired through."""
    fabric, ledger = faults.fabric, faults.ledger
    network = faults.network_faults()
    beacon_s = fabric.config.beacon_interval_s
    series = harvest_yield_series(engine.outcomes, bucket_s=beacon_s)
    recovery = yield_recovery_time(series, campaign.final_heal_s)
    # the control plane under audit (counters are summed across the
    # consensus replicas)
    managers = fabric.managers
    counters: Dict[str, int] = {
        "datagrams_lost": network.datagrams_lost,
        "datagrams_duplicated": network.datagrams_duplicated,
        "messages_jittered": network.messages_jittered,
        "channel_retransmits": network.channel_retransmits,
        "manager_restarts": fabric.manager_restarts,
        "frontend_restarts": fabric.frontend_restarts,
        "requests_shed": sum(fe.shed
                             for fe in fabric.frontends.values()),
        "dispatch_retries": sum(fe.stub.retries
                                for fe in fabric.frontends.values()),
        "deadline_expiries": sum(fe.stub.deadline_expiries
                                 for fe in fabric.frontends.values()),
        "backoff_waits": sum(fe.stub.backoff_waits
                             for fe in fabric.frontends.values()),
        "worker_expired_sheds": sum(stub.expired
                                    for stub in fabric.workers.values()),
        "spawn_failures": sum(m.spawn_failures for m in managers),
    }
    # brownout-path counters; the zero-valued ones are filtered out of
    # the counter line, so campaigns without the degradable service
    # render unchanged
    frontends = list(fabric.frontends.values())
    counters["degraded_replies"] = sum(fe.degraded for fe in frontends)
    counters["priority_sheds"] = sum(
        fe.shed_priority for fe in frontends)
    counters["deadline_sheds"] = sum(
        fe.shed_deadline for fe in frontends)
    counters["retry_budget_denials"] = sum(
        fe.stub.retry_budget_denials for fe in frontends)
    counters.update(fabric.service.brownout_counters())
    store = fabric.profile_store
    counters["relaxed_profile_reads"] = (
        store.stats().get("relaxed_reads", 0) if store is not None else 0)
    if managers:
        counters["reaps"] = sum(m.reaps for m in managers)
        counters["reap_redispatches"] = sum(m.reap_redispatches
                                            for m in managers)
        counters["reap_drops"] = sum(m.reap_drops for m in managers)
    if supervisor is not None:
        counters["recovery_probes"] = supervisor.probes_sent
        counters["recovery_suspicions"] = supervisor.suspicions
        counters["recovery_restarts"] = supervisor.restarts
        counters["recovery_rejuvenations"] = supervisor.rejuvenations
        counters["quarantined_nodes"] = len(supervisor.quarantined_nodes)
    recovery_cases: List[Any] = []
    recovery_summary: Dict[str, Any] = {}
    if (ledger.cases or ledger.false_alarms or ledger.rejuvenations
            or ledger.rejoins):
        recovery_cases = list(ledger.cases)
        # brick campaigns widen the availability denominator: the
        # population under fault is workers plus bricks
        bricks = fabric.profile_bricks
        n_bricks = bricks.n_bricks if bricks is not None else 0
        recovery_summary = ledger.summary(
            campaign.duration_s,
            population=max(1, campaign.initial_workers + n_bricks))
    spawn_log = [failure for m in managers
                 for failure in m.spawn_failure_log]
    latency_stats = LatencyStats.from_samples(engine.latencies())
    partitions = fabric.cluster.network.partitions
    partition: Dict[str, Any] = {}
    if partitions is not None:
        stubs = [fe.stub for fe in fabric.frontends.values()]
        partition = {
            "backend": fabric.config.manager_backend,
            "wrong_decisions": sum(s.wrong_decisions for s in stubs),
            "lease_stalls": sum(s.lease_stalls for s in stubs),
            "partition_misroutes": sum(s.partition_misroutes
                                       for s in stubs),
            "stale_beacons_rejected": sum(s.stale_beacons_rejected
                                          for s in stubs),
            "dispatch_stall_s": round(
                sum(s.stall_s for s in stubs), 3),
            "failover_max_s": round(
                max((s.beacon_gap_max_s for s in stubs), default=0.0),
                3),
            "multicast_blocked": partitions.multicast_blocked,
            "channel_blocked": partitions.channel_blocked,
            "deposed_managers": len(fabric.deposed_managers),
        }
    return ChaosReport(
        campaign=campaign.name,
        description=campaign.description,
        seed=seed,
        duration_s=campaign.duration_s,
        beacon_interval_s=beacon_s,
        final_heal_s=campaign.final_heal_s,
        fault_timeline=list(faults.timeline),
        series=series,
        violations=list(checker.violations),
        recovery_s=recovery,
        convergence_s=checker.convergence_s,
        reregistration_times=list(checker.reregistration_times),
        counters=counters,
        spawn_failures=spawn_log,
        latency=latency_stats.summary(),
        latency_stats=latency_stats,
        recovery_cases=recovery_cases,
        recovery_summary=recovery_summary,
        profile=profile or {},
        partition=partition,
        consensus=consensus or {},
        degradation=degradation or {},
    )
