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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class SNSConfig:
    """Knobs for the manager, stubs, and front ends."""

    # -- soft-state refresh --------------------------------------------------
    #: manager beacon period on the well-known multicast channel.
    beacon_interval_s: float = 0.5
    #: worker stub load-report period ("every half a second").
    report_interval_s: float = 0.5
    #: beacons a manager stub may miss before declaring the manager dead
    #: and exercising its process-peer duty to restart it.
    beacon_loss_tolerance: int = 6
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
    #: ...for this long, and more than min_workers_per_type remain.
    reap_after_s: float = 60.0
    min_workers_per_type: int = 1
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
    #: EWMA weight for policy-side latency observations (the ewma
    #: policy and the outlier ejector; distinct from the manager's
    #: load_ewma_alpha so tuning one never skews the other).
    policy_ewma_alpha: float = 0.3
    #: "weighted" policy: traffic fraction routed to the canary (the
    #: most recently spawned worker).
    policy_canary_fraction: float = 0.1
    #: "hash-bounded" policy: a worker may carry at most this multiple
    #: of the mean in-flight load before the request walks the ring.
    policy_hash_bound: float = 1.25
    #: "hash-bounded" policy: virtual nodes per worker on the ring.
    policy_hash_replicas: int = 50
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
    #: request/response header bytes charged to the FE access link on
    #: top of content bytes.
    request_overhead_bytes: int = 400

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
    #: slower than ``origin_breaker_slow_s``) before the breaker opens;
    #: ``None`` disables the breaker.  While open, origin fetches fail
    #: fast; after ``origin_breaker_cooldown_s`` one half-open probe
    #: tests the origin again.
    origin_breaker_failures: Optional[int] = None
    origin_breaker_cooldown_s: float = 10.0
    origin_breaker_slow_s: float = 2.0

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
    #: signal targets: worst per-worker queue delay (seconds), busiest
    #: front end's thread occupancy, and per-tick shed ratio.  Each
    #: signal normalized by its target; pressure is the max.
    degrade_queue_target_s: float = 1.0
    degrade_util_target: float = 0.9
    degrade_shed_target: float = 0.05
    #: highest ladder level the controller may reach (operators can pin
    #: the ladder below priority-admission/deadline-shed).
    degrade_max_level: int = 5
    #: deadline-shed level: assumed client deadline for the
    #: probabilistic can-this-still-make-it admission estimate.
    degrade_deadline_s: float = 8.0
    #: serve-stale level: result freshness horizon (always servable)
    #: and the extended stale horizon (servable only while degraded).
    degrade_fresh_ttl_s: float = 2.0
    degrade_stale_ttl_s: float = 90.0

    # -- workers ----------------------------------------------------------------------
    #: worker stub queue capacity; beyond this, submissions are refused
    #: (the stub "accepts and queues requests on behalf of the
    #: distiller").
    worker_queue_capacity: int = 200
    #: when True, worker stubs drop queued requests whose propagated
    #: deadline has already passed (the client gave up; executing the
    #: work would only add queueing delay for live requests).
    shed_expired_requests: bool = False

    # -- consensus-replicated manager (the partition-tolerant variant) -------
    #: leader lease: a leader whose last committed entry is older than
    #: this stops beaconing and refusing work (it may be in a minority).
    consensus_lease_s: float = 2.0
    #: soft-state backend only: a deposed manager that hears a beacon
    #: with a higher incarnation kills itself instead of beaconing
    #: forever from the minority side of a healed partition.
    manager_self_deposition: bool = False

    # -- caching ------------------------------------------------------------------------
    #: distillation threshold: content under 1 KB is passed unmodified.
    distillation_threshold_bytes: int = 1024
    #: store distilled results in the virtual cache.
    cache_distilled: bool = True

    def validate(self) -> "SNSConfig":
        if self.beacon_interval_s <= 0 or self.report_interval_s <= 0:
            raise ValueError("intervals must be positive")
        if self.spawn_threshold <= 0:
            raise ValueError("spawn threshold must be positive")
        if self.spawn_damping_s < 0:
            raise ValueError("spawn damping must be non-negative")
        if self.reap_drain_timeout_s < 0:
            raise ValueError("reap drain timeout must be non-negative")
        if not 0 < self.load_ewma_alpha <= 1:
            raise ValueError("EWMA alpha must be in (0, 1]")
        if self.load_metric not in ("queue", "weighted-cost"):
            raise ValueError(
                f"unknown load metric {self.load_metric!r}")
        if self.balancing not in ("centralized", "distributed"):
            raise ValueError(
                f"unknown balancing mode {self.balancing!r}")
        if self.dispatch_attempts < 1:
            raise ValueError("need at least one dispatch attempt")
        # late import: repro.balance typing never depends on config, but
        # importing it at module top would be a cycle risk for callers
        from repro.balance import parse_policy_spec
        parse_policy_spec(self.routing_policy)  # raises PolicyError
        if not 0 < self.policy_ewma_alpha <= 1:
            raise ValueError("policy EWMA alpha must be in (0, 1]")
        if not 0.0 < self.policy_canary_fraction < 1.0:
            raise ValueError("canary fraction must be in (0, 1)")
        if self.policy_hash_bound < 1.0:
            raise ValueError("hash load bound must be >= 1")
        if self.policy_hash_replicas < 1:
            raise ValueError("hash ring needs >= 1 replica per worker")
        if self.outlier_latency_ratio <= 1.0:
            raise ValueError("outlier latency ratio must be > 1")
        if self.outlier_min_samples < 1 or self.outlier_min_peers < 2:
            raise ValueError(
                "outlier ejection needs >= 1 sample and >= 2 peers")
        if self.outlier_timeout_threshold < 1:
            raise ValueError("outlier timeout threshold must be >= 1")
        if self.outlier_window_s <= 0 or self.outlier_ejection_s <= 0:
            raise ValueError("outlier windows must be positive")
        if self.outlier_max_ejection_s < self.outlier_ejection_s:
            raise ValueError(
                "max ejection must be >= the base ejection duration")
        if self.dispatch_deadline_s is not None \
                and self.dispatch_deadline_s <= 0:
            raise ValueError("dispatch deadline must be positive")
        if self.dispatch_backoff_base_s < 0 \
                or self.dispatch_backoff_cap_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.dispatch_backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= self.dispatch_backoff_jitter <= 1.0:
            raise ValueError("backoff jitter must be in [0, 1]")
        if self.admission_max_backlog_s is not None \
                and self.admission_max_backlog_s < 0:
            raise ValueError("admission backlog must be non-negative")
        if self.admission_exit_backlog_s is not None:
            if self.admission_max_backlog_s is None:
                raise ValueError(
                    "admission exit threshold needs admission_max_"
                    "backlog_s set")
            if not 0 <= self.admission_exit_backlog_s \
                    <= self.admission_max_backlog_s:
                raise ValueError(
                    "admission exit threshold must be in [0, enter]")
        if self.retry_budget_ratio is not None \
                and self.retry_budget_ratio < 0:
            raise ValueError("retry budget ratio must be non-negative")
        if self.retry_budget_cap < 1:
            raise ValueError("retry budget cap must be >= 1")
        if self.origin_breaker_failures is not None \
                and self.origin_breaker_failures < 1:
            raise ValueError("breaker failure threshold must be >= 1")
        if self.origin_breaker_cooldown_s <= 0 \
                or self.origin_breaker_slow_s <= 0:
            raise ValueError(
                "breaker cooldown and slow budget must be positive")
        if self.degrade_tick_s <= 0:
            raise ValueError("degrade tick must be positive")
        if not 0 <= self.degrade_exit_pressure \
                < self.degrade_enter_pressure:
            raise ValueError(
                "need 0 <= exit pressure < enter pressure")
        if self.degrade_dwell_ticks < 1 or self.degrade_hold_ticks < 0:
            raise ValueError(
                "degrade dwell must be >= 1 and hold >= 0 ticks")
        if self.degrade_queue_target_s <= 0 \
                or self.degrade_util_target <= 0 \
                or self.degrade_shed_target <= 0:
            raise ValueError("degrade signal targets must be positive")
        if not 0 <= self.degrade_max_level <= 5:
            raise ValueError("degrade max level must be in [0, 5]")
        if self.degrade_deadline_s <= 0:
            raise ValueError("degrade deadline must be positive")
        if self.degrade_fresh_ttl_s <= 0 \
                or self.degrade_stale_ttl_s < self.degrade_fresh_ttl_s:
            raise ValueError(
                "need 0 < fresh TTL <= stale TTL")
        if self.frontend_threads < 1:
            raise ValueError("front end needs at least one thread")
        if self.consensus_lease_s <= 0:
            raise ValueError("consensus lease must be positive")
        return self
