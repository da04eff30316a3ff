"""SNS layer configuration.

Every tunable named in the paper lives here with its paper-derived
default: the spawn threshold *H* ("when the average crosses a
configurable threshold H, the manager spawns a new distiller"), the
damping interval *D* ("the spawning mechanism is disabled for D
seconds"), beacon and load-report periods ("a load announcement packet
for the manager every half a second"), the front-end thread pool ("the
production TranSend runs with a single front-end of about 400 threads"),
and the per-connection front-end overhead that makes a 100 Mb/s segment
top out near 70 requests/second (Section 4.6, footnote 5).

A value is an :class:`SNSConfig` field only while some experiment,
campaign, benchmark or test sets it.  The ones nothing ever set are the
module constants above the class, each still carrying its paper quote:
``BEACON_LOSS_TOLERANCE`` (3.1.3), ``MIN_WORKERS_PER_TYPE`` (3.1.2),
``REQUEST_OVERHEAD_BYTES`` (4.6), ``DISTILLATION_THRESHOLD_BYTES``
(4.1), ``CONSENSUS_LEASE_S``, ``ORIGIN_BREAKER_COOLDOWN_S`` /
``ORIGIN_BREAKER_SLOW_S``, ``DEGRADE_QUEUE_TARGET_S`` /
``DEGRADE_SHED_TARGET`` and ``DEGRADE_FRESH_TTL_S`` /
``DEGRADE_STALE_TTL_S``.  Two more sit beside their only readers in
:mod:`repro.balance.policies` (``EWMA_ALPHA``, ``HASH_RING_REPLICAS``),
because ``repro.core`` imports ``repro.balance`` and not the other way
round.  Distilled results are always cached (Section 3.1.5's injection
path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: beacons a manager stub may miss before declaring the manager dead
#: and exercising its process-peer duty to restart it (Section 3.1.3).
BEACON_LOSS_TOLERANCE = 6
#: a reap never takes a worker type below this many workers.
MIN_WORKERS_PER_TYPE = 1
#: request/response header bytes charged to the FE access link on top
#: of content bytes.
REQUEST_OVERHEAD_BYTES = 400
#: distillation threshold: content under 1 KB is passed unmodified
#: (Section 4.1).
DISTILLATION_THRESHOLD_BYTES = 1024
#: consensus backend's leader lease: a leader whose last committed
#: entry is older than this stops beaconing and refusing work (it may
#: be in a minority).
CONSENSUS_LEASE_S = 2.0
#: origin circuit breaker: how long it stays open before one half-open
#: probe, and the fetch time past which a success counts as a failure.
ORIGIN_BREAKER_COOLDOWN_S = 10.0
ORIGIN_BREAKER_SLOW_S = 2.0
#: brownout signal targets: the worst per-worker queue delay (seconds)
#: and the per-tick shed ratio at which pressure reads 1.
DEGRADE_QUEUE_TARGET_S = 1.0
DEGRADE_SHED_TARGET = 0.05
#: serve-stale level: result freshness horizon (always servable) and
#: the extended stale horizon (servable only while degraded).
DEGRADE_FRESH_TTL_S = 2.0
DEGRADE_STALE_TTL_S = 90.0


class ConfigError(ValueError):
    """A value :meth:`SNSConfig.validate` rejects; the text names the
    field (or the fields of a joint condition) and the offending value."""

    def __init__(self, config: "SNSConfig", fields: str,
                 requirement: str) -> None:
        self.fields = fields.split()
        shown = ", ".join(f"{name}={getattr(config, name)!r}"
                          for name in self.fields)
        super().__init__(f"{shown}: {requirement}")


@dataclass
class SNSConfig:
    """Knobs for the manager, stubs, and front ends."""

    # -- deployment ----------------------------------------------------------
    # Chosen once, here; ``balancing`` and ``routing_policy`` below are
    # the other two deployment axes.  DESIGN.md "Deployment" names the
    # one reader of each.
    #: control plane: "soft" is the paper's single soft-state manager,
    #: "consensus" three Paxos-replicated manager replicas with a
    #: leader lease (repro.consensus).
    manager_backend: str = "soft"
    #: profile storage behind the bench service: None keeps the
    #: profile-less bench service, "single" is the paper's one ACID
    #: ProfileStore (Section 2.3), "dstore" the replicated brick store
    #: (three bricks, two replicas; repro.dstore).
    profile_backend: Optional[str] = None
    #: service layer of the bench fabric: None keeps the plain bench
    #: service, "degradable" installs the brownout service and
    #: distiller (repro.degrade).
    service_backend: Optional[str] = None

    # -- soft-state refresh --------------------------------------------------
    #: manager beacon period on the well-known multicast channel.
    beacon_interval_s: float = 0.5
    #: worker stub load-report period ("every half a second").
    report_interval_s: float = 0.5
    #: seconds without a load report before the manager presumes a
    #: worker dead (timeouts as the backup failure detector).
    worker_timeout_s: float = 5.0

    # -- spawn / reap policy --------------------------------------------------
    #: threshold H: spawn when a type's average queue length crosses it.
    spawn_threshold: float = 10.0
    #: damping D: seconds the spawner is disabled after each spawn.
    spawn_damping_s: float = 15.0
    #: reap a worker when the type's average queue stays below this...
    reap_threshold: float = 0.5
    #: ...for this long, and more than MIN_WORKERS_PER_TYPE remain.
    reap_after_s: float = 60.0
    #: seconds a busy reap victim gets to drain (queued work is moved to
    #: peers, the in-service request runs out) before it is killed anyway.
    reap_drain_timeout_s: float = 10.0
    #: recruit overflow-pool nodes when the dedicated pool is exhausted.
    use_overflow_pool: bool = True

    # -- load balancing ----------------------------------------------------------
    #: "centralized" (the paper's design: the manager aggregates load
    #: and beacons hints) or "distributed" (the Section 2.2.2
    #: alternative the paper argues against: every worker multicasts its
    #: own load to every front end).  The manager still exists in
    #: distributed mode for spawning and process-peer duties; it just
    #: plays no part in balancing.
    balancing: str = "centralized"
    #: load metric (Section 3.1.2, footnote 2): "queue" counts waiting
    #: requests; "weighted-cost" weights each queued item by its
    #: expected cost in seconds — with it, spawn_threshold is literally
    #: "the greatest delay the user is willing to tolerate", in seconds.
    load_metric: str = "queue"
    #: exponential moving average weight for queue-length reports.
    load_ewma_alpha: float = 0.3
    #: manager stubs extrapolate queue deltas between reports (the
    #: Section 4.5 oscillation fix); disable for the ablation.
    estimate_queue_deltas: bool = True
    #: lottery-scheduling weight exponent: weight = 1/(1+queue)^gamma.
    lottery_gamma: float = 2.0
    #: worker-selection policy at the manager stubs (repro.balance).
    #: Base names: lottery (the paper's default), round-robin,
    #: least-outstanding, p2c, ewma, weighted, hash-bounded; append
    #: "+eject" for passive outlier ejection (e.g. "ewma+eject").
    routing_policy: str = "lottery"
    #: "weighted" policy: traffic fraction routed to the canary (the
    #: most recently spawned worker).
    policy_canary_fraction: float = 0.1
    #: "hash-bounded" policy: a worker may carry at most this multiple
    #: of the mean in-flight load before the request walks the ring.
    policy_hash_bound: float = 1.25
    #: "+eject" wrapper: eject when a worker's observed-latency EWMA
    #: exceeds this multiple of the peer median...
    outlier_latency_ratio: float = 3.0
    #: ...judged only after this many local latency samples...
    outlier_min_samples: int = 8
    #: ...and only while at least this many peers are in play
    #: (peer-relative by construction: global slowness ejects nobody).
    outlier_min_peers: int = 3
    #: "+eject" wrapper: timeouts within outlier_window_s that eject a
    #: worker (unless timeouts are cluster-wide).
    outlier_timeout_threshold: int = 3
    outlier_window_s: float = 10.0
    #: first ejection duration; doubles per repeat offence up to the
    #: max.  Re-admission is probationary (history cleared).
    outlier_ejection_s: float = 5.0
    outlier_max_ejection_s: float = 60.0
    #: per-dispatch timeout before the front end retries elsewhere.
    dispatch_timeout_s: float = 8.0
    #: dispatch attempts before falling back to the original content.
    dispatch_attempts: int = 2
    #: per-request dispatch deadline; ``None`` means the full budget
    #: (``dispatch_attempts * dispatch_timeout_s``).  The deadline is
    #: propagated into each WorkEnvelope so downstream stages can shed
    #: work the client has already given up on.
    dispatch_deadline_s: Optional[float] = None
    #: retry backoff: first-retry delay, growth factor, and cap.  The
    #: delay is jittered ±50% by ``dispatch_backoff_jitter`` from a
    #: dedicated seeded stream, so lossy-regime retries neither
    #: synchronize into retry storms nor perturb other streams.
    dispatch_backoff_base_s: float = 0.05
    dispatch_backoff_factor: float = 2.0
    dispatch_backoff_cap_s: float = 2.0
    #: jitter fraction: each backoff delay is scaled by a deterministic
    #: uniform draw in [1 - j/2, 1 + j/2].
    dispatch_backoff_jitter: float = 0.5

    # -- front ends -----------------------------------------------------------------
    #: thread-pool size ("about 400 threads").
    frontend_threads: int = 400
    #: per-request TCP/kernel overhead at the front end; 14 ms gives the
    #: ~70 req/s per-FE ceiling measured in Section 4.6.
    frontend_connection_overhead_s: float = 0.014

    #: load-shedding admission control: when set, a front end whose
    #: thread pool is exhausted *and* whose netstack backlog exceeds
    #: this many seconds refuses new requests immediately ("shed")
    #: instead of queueing them toward certain timeout.  ``None``
    #: disables shedding (the paper's original behaviour).
    admission_max_backlog_s: Optional[float] = None
    #: shedding hysteresis: once shedding starts it continues until the
    #: netstack backlog falls back *below this* (< admission_max_
    #: backlog_s), instead of flapping on/off around the single
    #: threshold.  ``None`` keeps the legacy single-threshold switch.
    admission_exit_backlog_s: Optional[float] = None

    # -- overload-amplification guards (repro.degrade.guards) ----------------
    #: retry budget: each first dispatch attempt earns this many retry
    #: tokens (capped at ``retry_budget_cap``); each retry spends one.
    #: Caps retry traffic to a fraction of fresh requests so timeouts
    #: cannot snowball into retry storms.  ``None`` = unlimited retries
    #: (the legacy behaviour).
    retry_budget_ratio: Optional[float] = None
    retry_budget_cap: float = 20.0
    #: origin circuit breaker: consecutive failures (errors or fetches
    #: slower than ``ORIGIN_BREAKER_SLOW_S``) before the breaker opens;
    #: ``None`` disables the breaker.  While open, origin fetches fail
    #: fast; after ``ORIGIN_BREAKER_COOLDOWN_S`` one half-open probe
    #: tests the origin again.
    origin_breaker_failures: Optional[int] = None

    # -- brownout controller (repro.degrade.controller) ----------------------
    #: control-loop sampling period.
    degrade_tick_s: float = 0.5
    #: pressure at/above which the ladder escalates one level per tick.
    degrade_enter_pressure: float = 1.0
    #: pressure at/below which ticks count as calm (de-escalation).
    degrade_exit_pressure: float = 0.5
    #: consecutive calm ticks required before stepping down one level.
    degrade_dwell_ticks: int = 2
    #: minimum ticks between successive escalations (spawn-damping
    #: analogue: one congested sample cannot slam the ladder to the top).
    degrade_hold_ticks: int = 2
    #: busiest front end's thread occupancy at which pressure reads 1
    #: (the other two signals' targets are DEGRADE_QUEUE_TARGET_S and
    #: DEGRADE_SHED_TARGET; pressure is the max of the three).
    degrade_util_target: float = 0.9
    #: highest ladder level the controller may reach (operators can pin
    #: the ladder below priority-admission/deadline-shed).
    degrade_max_level: int = 5
    #: deadline-shed level: assumed client deadline for the
    #: probabilistic can-this-still-make-it admission estimate.
    degrade_deadline_s: float = 8.0

    # -- workers ----------------------------------------------------------------------
    #: worker stub queue capacity; beyond this, submissions are refused
    #: (the stub "accepts and queues requests on behalf of the
    #: distiller").
    worker_queue_capacity: int = 200
    #: when True, worker stubs drop queued requests whose propagated
    #: deadline has already passed (the client gave up; executing the
    #: work would only add queueing delay for live requests).
    shed_expired_requests: bool = False

    # -- partitions ----------------------------------------------------------
    #: soft-state backend only: a deposed manager that hears a beacon
    #: with a higher incarnation kills itself instead of beaconing
    #: forever from the minority side of a healed partition.
    manager_self_deposition: bool = False

    def _require(self, ok: bool, fields: str, requirement: str) -> None:
        if not ok:
            raise ConfigError(self, fields, requirement)

    def validate(self) -> "SNSConfig":
        require = self._require
        for name, allowed in (
                ("manager_backend", ("soft", "consensus")),
                ("profile_backend", (None, "single", "dstore")),
                ("service_backend", (None, "degradable")),
                ("load_metric", ("queue", "weighted-cost")),
                ("balancing", ("centralized", "distributed"))):
            require(getattr(self, name) in allowed, name,
                    f"must be one of {allowed}")
        for name in ("beacon_interval_s", "report_interval_s",
                     "spawn_threshold", "outlier_window_s",
                     "outlier_ejection_s", "degrade_tick_s",
                     "degrade_util_target", "degrade_deadline_s"):
            require(getattr(self, name) > 0, name, "must be positive")
        for name in ("spawn_damping_s", "reap_drain_timeout_s",
                     "dispatch_backoff_base_s", "dispatch_backoff_cap_s",
                     "degrade_hold_ticks"):
            require(getattr(self, name) >= 0, name,
                    "must be non-negative")
        for name in ("dispatch_attempts", "frontend_threads",
                     "policy_hash_bound", "outlier_min_samples",
                     "outlier_timeout_threshold",
                     "dispatch_backoff_factor", "retry_budget_cap",
                     "degrade_dwell_ticks"):
            require(getattr(self, name) >= 1, name, "must be >= 1")
        require(0 < self.load_ewma_alpha <= 1, "load_ewma_alpha",
                "must be in (0, 1]")
        # late import: repro.balance typing never depends on config, but
        # importing it at module top would be a cycle risk for callers
        from repro.balance import PolicyError, parse_policy_spec
        try:
            parse_policy_spec(self.routing_policy)
        except PolicyError as error:
            raise ConfigError(self, "routing_policy", str(error)) from None
        require(0.0 < self.policy_canary_fraction < 1.0,
                "policy_canary_fraction", "must be in (0, 1)")
        require(self.outlier_latency_ratio > 1.0,
                "outlier_latency_ratio", "must be > 1")
        require(self.outlier_min_peers >= 2, "outlier_min_peers",
                "must be >= 2")
        require(self.outlier_max_ejection_s >= self.outlier_ejection_s,
                "outlier_max_ejection_s outlier_ejection_s",
                "max ejection must be >= the base ejection duration")
        require(self.dispatch_deadline_s is None
                or self.dispatch_deadline_s > 0, "dispatch_deadline_s",
                "must be positive or None")
        require(0.0 <= self.dispatch_backoff_jitter <= 1.0,
                "dispatch_backoff_jitter", "must be in [0, 1]")
        require(self.admission_max_backlog_s is None
                or self.admission_max_backlog_s >= 0,
                "admission_max_backlog_s", "must be non-negative or None")
        require(self.admission_exit_backlog_s is None
                or self.admission_max_backlog_s is not None
                and 0 <= self.admission_exit_backlog_s
                <= self.admission_max_backlog_s,
                "admission_exit_backlog_s admission_max_backlog_s",
                "exit threshold must be in [0, enter] and needs the "
                "enter threshold set")
        require(self.retry_budget_ratio is None
                or self.retry_budget_ratio >= 0, "retry_budget_ratio",
                "must be non-negative or None")
        require(self.origin_breaker_failures is None
                or self.origin_breaker_failures >= 1,
                "origin_breaker_failures", "must be >= 1 or None")
        require(0 <= self.degrade_exit_pressure
                < self.degrade_enter_pressure,
                "degrade_exit_pressure degrade_enter_pressure",
                "need 0 <= exit pressure < enter pressure")
        require(0 <= self.degrade_max_level <= 5, "degrade_max_level",
                "must be in [0, 5]")
        return self
