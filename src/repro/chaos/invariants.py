"""Online invariant checker for chaos campaigns.

Each invariant is one of the paper's soft-state guarantees, restated as
something falsifiable while faults are still landing:

* **reregistration** — every worker that was live at a heal re-registers
  with the manager within ``k`` beacon periods (counting only periods a
  manager was alive to hear it), Section 3.1.3's "a newly restarted
  manager reconstructs the whole picture from re-registrations";
* **convergence** — after the final heal the manager's worker view
  becomes *exactly* the set of live, reachable workers, within a bound;
* **bounded-reply** — no client reply event hangs past the client
  timeout: every submitted request reaches an outcome and no completion
  exceeds the bound;
* **single-completion** — no request is answered twice, even under
  duplicated datagram delivery.

Violations are collected, not raised: a campaign runs to completion and
reports everything it caught, which is what lets the "checker has
teeth" test show a deliberately weakened system failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import BEACON_LOSS_TOLERANCE


@dataclass
class InvariantViolation:
    """One observed violation of a soft-state guarantee."""

    time: float
    invariant: str
    detail: str
    #: trace id of the offending request, when span tracing sampled it.
    trace_id: Optional[str] = None
    #: rendered span tree of the offending request (repro.obs), so the
    #: report shows *where* the violated request spent its time.
    span_tree: Optional[str] = None

    def __repr__(self) -> str:
        return (f"<Violation {self.invariant} @ {self.time:.2f}s: "
                f"{self.detail}>")


class InvariantChecker:
    """Watches a fabric (and its playback engine) during a campaign."""

    def __init__(self, fabric: Any,
                 reregister_periods: Optional[int] = None) -> None:
        self.fabric = fabric
        self.config = fabric.config
        self.env = fabric.cluster.env
        self.reregister_periods = (
            reregister_periods if reregister_periods is not None
            else 2 * BEACON_LOSS_TOLERANCE)
        #: the environment's span tracer (None when tracing is off);
        #: lets violations carry the offending request's span tree.
        self.tracer = self.env.tracer
        self.violations: List[InvariantViolation] = []
        # single-completion bookkeeping
        self.submitted = 0
        self._completions: Dict[int, int] = {}
        # measured outcomes, surfaced in the report
        self.reregistration_times: List[float] = []
        self.convergence_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation(self, invariant: str, detail: str,
                  trace_id: Optional[str] = None) -> None:
        self.violations.append(InvariantViolation(
            self.env.now, invariant, detail, trace_id=trace_id,
            span_tree=self._span_tree_for(trace_id)))

    def _span_tree_for(self, trace_id: Optional[str]) -> Optional[str]:
        """Rendered span tree of the offending request, when the tracer
        sampled it."""
        tracer = (self.tracer if self.tracer is not None
                  else self.env.tracer)
        if trace_id is None or tracer is None:
            return None
        spans = tracer.trace(trace_id)
        if not spans:
            return None
        from repro.obs.attribution import render_span_tree
        return render_span_tree(spans)

    # -- single-completion ---------------------------------------------------

    def checked_submit(self, submit: Callable[[Any], Any]
                       ) -> Callable[[Any], Any]:
        """Wrap a submit function so every reply event is audited: each
        client request must complete at most once."""
        def wrapped(record: Any):
            event = submit(record)
            key = self.submitted
            self.submitted += 1
            if event.callbacks is not None:
                event.callbacks.append(
                    lambda _event, key=key: self._completed(key))
            else:
                # already processed before we could watch it: count it
                self._completed(key)
            return event
        return wrapped

    def _completed(self, key: int) -> None:
        count = self._completions.get(key, 0) + 1
        self._completions[key] = count
        if count > 1:
            self.violation(
                "single-completion",
                f"request {key} completed {count} times")

    # -- reregistration after a heal -----------------------------------------

    def expect_reregistration(self, heal_time: float,
                              periods: Optional[int] = None) -> None:
        """Assert that every worker live at ``heal_time`` re-registers
        within ``periods`` beacon periods of it (default
        ``2 * BEACON_LOSS_TOLERANCE``).  Periods with no live manager
        (it may itself be mid-restart) do not count against the budget;
        workers killed after the heal drop out of the requirement."""
        self.env.process(self._reregistration_check(
            heal_time,
            periods if periods is not None else self.reregister_periods))

    def _ground_truth(self) -> List[Any]:
        """Workers a correct manager must know: alive, reachable, and on
        an up node."""
        return [
            stub for stub in self.fabric.workers.values()
            if stub.alive and not stub.is_partitioned and stub.node.up
        ]

    def _reregistration_check(self, heal_time: float, periods: int):
        yield self.env.timeout(max(0.0, heal_time - self.env.now))
        expected = {stub.name for stub in self._ground_truth()}
        if not expected:
            return  # nothing was live at the heal: nothing to assert
        interval = self.config.beacon_interval_s
        live_polls = 0
        while True:
            yield self.env.timeout(interval)
            manager = self.fabric.manager
            if manager is None or not manager.alive:
                continue  # a manager restart is in progress
            live_polls += 1
            still_due = {
                stub.name for stub in self._ground_truth()
                if stub.name in expected
            }
            missing = sorted(still_due - set(manager.workers))
            if not missing:
                self.reregistration_times.append(
                    self.env.now - heal_time)
                return
            if live_polls >= periods:
                self.violation(
                    "reregistration",
                    f"{missing} not re-registered {periods} beacon "
                    f"periods after heal at {heal_time:.1f}s")
                return

    # -- convergence to ground truth -----------------------------------------

    def expect_convergence(self, after_time: float,
                           within_s: Optional[float] = None) -> None:
        """Assert the manager's worker view equals ground truth within
        ``within_s`` seconds of ``after_time`` (default 10 beacon
        periods) and record how long convergence took."""
        budget = (within_s if within_s is not None
                  else 10 * self.config.beacon_interval_s)
        self.env.process(self._convergence_check(after_time, budget))

    def _convergence_check(self, after_time: float, within_s: float):
        yield self.env.timeout(max(0.0, after_time - self.env.now))
        deadline = self.env.now + within_s
        while True:
            manager = self.fabric.manager
            truth = {stub.name for stub in self._ground_truth()}
            view = (set(manager.workers)
                    if manager is not None and manager.alive else None)
            # an empty ground truth never converges: the manager's job
            # is to keep the pool alive, so "view == truth == {}" is
            # service extinction, not agreement
            if view == truth and truth:
                self.convergence_s = self.env.now - after_time
                return
            if self.env.now >= deadline:
                if not truth:
                    self.violation(
                        "convergence",
                        "service extinct: no live reachable workers "
                        f"{within_s:.1f}s after final heal")
                else:
                    self.violation(
                        "convergence",
                        f"manager view "
                        f"{sorted(view) if view else view} != "
                        f"ground truth {sorted(truth)} "
                        f"{within_s:.1f}s after final heal")
                return
            yield self.env.timeout(self.config.beacon_interval_s)

    # -- bounded reply --------------------------------------------------------

    def final_checks(self, engine: Any,
                     max_latency_s: float) -> None:
        """End-of-run assertions over the playback engine's record."""
        from repro.analysis.metrics import LatencyStats
        if engine.in_flight:
            self.violation(
                "bounded-reply",
                f"{engine.in_flight} requests still hanging at end of "
                f"run (reply events that never fired or timed out)")
        if self.submitted != len(engine.outcomes) + engine.in_flight:
            self.violation(
                "bounded-reply",
                f"{self.submitted} submitted but only "
                f"{len(engine.outcomes)} outcomes recorded")
        stats = LatencyStats.from_samples(engine.latencies())
        worst = stats.maximum
        if worst > max_latency_s + 1e-9:
            # attach the offending request's span tree when sampled
            offender = max(
                (outcome for outcome in engine.outcomes
                 if outcome.ok and outcome.latency is not None),
                key=lambda outcome: outcome.latency)
            self.violation(
                "bounded-reply",
                f"completion took {worst:.2f}s, past the "
                f"{max_latency_s:.2f}s client deadline",
                trace_id=getattr(offender, "trace_id", None))

    # -- consensus safety -----------------------------------------------------

    def final_consensus_checks(self, group: Any) -> None:
        """End-of-run Paxos safety audit over the replicated manager
        group: across every replica's learner state, no log slot may
        hold two different chosen values — the one property consensus
        exists to provide, and the one a partition must never break."""
        for problem in group.safety_violations():
            self.violation("paxos-safety", problem)

    # -- profile durability and availability ---------------------------------

    def final_profile_checks(self, store: Any, service: Any,
                             read_slo: Optional[float] = None
                             ) -> List[Dict[str, Any]]:
        """End-of-run profile-path assertions.

        **committed-write-loss** — every cell the coordinator reported
        committed must still be readable at its committed (or newer)
        version once the campaign settles; anything unavailable, absent,
        or stale is a durability violation, the one result a replicated
        store exists to prevent.  Checked through the backend's
        ``verify_committed`` oracle (the single WAL store can't lose
        acknowledged commits in this model, so it vacuously passes).

        **profile-read-availability** — when the campaign set an SLO,
        the fraction of profile reads answered must meet it: replica
        peers masking brick faults is the availability claim.

        Returns the list of lost-write reports for the chaos report.
        """
        lost: List[Dict[str, Any]] = store.backend.verify_committed()
        for report in lost:
            self.violation(
                "committed-write-loss",
                f"committed cell {report['user']}/{report['key']} "
                f"v{report['version']} {report['reason']} after settle")
        if read_slo is not None:
            availability = service.profile_read_availability
            if availability < read_slo - 1e-12:
                self.violation(
                    "profile-read-availability",
                    f"profile reads {availability:.4f} available, "
                    f"below the {read_slo:.2f} SLO "
                    f"({service.profile_read_failures} of "
                    f"{service.profile_reads} failed)")
        return lost

    # -- graceful degradation -------------------------------------------------

    def final_yield_check(self, engine: Any, yield_slo: float) -> None:
        """End-of-run yield-SLO assertion for brownout campaigns.

        Yield is the fraction of submitted requests answered at all —
        a degraded (stale, low-fidelity, fallback) answer still counts,
        an error page or timeout does not.  The brownout claim is that
        the controller holds yield near 1.0 through a flash crowd by
        spending harvest instead; this is the gate CI fails when the
        controller stops earning its keep.
        """
        submitted = len(engine.outcomes) + engine.in_flight
        answered = sum(
            1 for outcome in engine.outcomes
            if outcome.ok
            and getattr(outcome.response, "status", "ok") != "error")
        achieved = answered / submitted if submitted else 1.0
        if achieved < yield_slo - 1e-12:
            self.violation(
                "yield-slo",
                f"yield {achieved:.4f} ({answered} of {submitted} "
                f"answered), below the {yield_slo:.2f} SLO")
