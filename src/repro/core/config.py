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

A value is an :class:`SNSConfig` field only while some shipped caller
(an experiment, campaign, benchmark or CLI flag) sets it to a second
value; tests and examples do not count.  The rest are module constants
beside their one reader, each still carrying its paper quote or
comment: here ``BEACON_LOSS_TOLERANCE`` (3.1.3),
``MIN_WORKERS_PER_TYPE`` (3.1.2), ``REQUEST_OVERHEAD_BYTES`` (4.6),
``DISTILLATION_THRESHOLD_BYTES`` (4.1), ``CONSENSUS_LEASE_S``,
``ORIGIN_BREAKER_*``, ``LOAD_EWMA_ALPHA``, ``REAP_THRESHOLD``, the
retry backoff's ``DISPATCH_BACKOFF_*`` and the brownout loop's
``DEGRADE_*`` (``DEGRADE_HOLD_TICKS`` among them; the loop climbs to
:data:`repro.degrade.ladder.MAX_LEVEL`); in :mod:`repro.core.manager`
``REAP_DRAIN_TIMEOUT_S``; in :mod:`repro.balance.policies`
(``repro.core`` imports ``repro.balance``, not the other way round)
``EWMA_ALPHA``, ``HASH_RING_REPLICAS``, ``HASH_BOUND`` and
``CANARY_FRACTION``; in :mod:`repro.balance.ejection` the ejector's
``OUTLIER_*`` ratio, peer count, sample count, timeout threshold,
window and durations.  Distilled results are always cached (Section
3.1.5's injection path).

The rule holds for every defaulted function and constructor parameter
in ``src/repro`` as well, and ``tools/reachability.py`` checks it: the
parameter section of ``tools/reachability.txt`` lists each one no
shipped entry point sets to a second value, and each either becomes a
constant beside its reader or keeps a reason from a closed set of
three: paper content behind a test-only switch, deployment setting,
test seam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.domains import (OutOfDomain, at_least, check_fields,
                           checked, choice, count, positive)

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
#: exponential moving average weight for queue-length reports (the
#: manager's per-worker queue average and the worker stub's
#: service-time EWMA).
LOAD_EWMA_ALPHA = 0.3
#: reap a worker when its type's average queue stays below this for
#: ``reap_after_s``.
REAP_THRESHOLD = 0.5
#: retry backoff: the first-retry delay, growing by
#: DISPATCH_BACKOFF_FACTOR per retry up to DISPATCH_BACKOFF_CAP_S.  Each
#: delay is scaled by a uniform draw in [1 - j/2, 1 + j/2] (j =
#: DISPATCH_BACKOFF_JITTER) from a dedicated seeded stream, so
#: lossy-regime retries neither synchronize into retry storms nor
#: perturb other streams.
DISPATCH_BACKOFF_BASE_S = 0.05
DISPATCH_BACKOFF_FACTOR = 2.0
DISPATCH_BACKOFF_CAP_S = 2.0
DISPATCH_BACKOFF_JITTER = 0.5
#: brownout control-loop sampling period.
DEGRADE_TICK_S = 0.5
#: pressure at/above which the ladder escalates one level per tick.
DEGRADE_ENTER_PRESSURE = 1.0
#: pressure at/below which ticks count as calm (de-escalation).
DEGRADE_EXIT_PRESSURE = 0.5
#: consecutive calm ticks required before stepping down one level.
DEGRADE_DWELL_TICKS = 2
#: minimum ticks between successive escalations (spawn-damping
#: analogue: one congested sample cannot slam the ladder to the top).
DEGRADE_HOLD_TICKS = 2
#: deadline-shed level: assumed client deadline for the probabilistic
#: can-this-still-make-it admission estimate.
DEGRADE_DEADLINE_S = 8.0


#: a switch: True or False (``1`` and ``0`` are refused).
FLAG = choice(False, True)


class ConfigError(ValueError):
    """A value :meth:`SNSConfig.validate` rejects; the text names the
    field (or the fields of a joint condition) and the offending value."""

    def __init__(self, config: "SNSConfig", fields: str,
                 requirement: str) -> None:
        self.fields = fields.split()
        shown = ", ".join(f"{name}={getattr(config, name)!r}"
                          for name in self.fields)
        super().__init__(f"{shown} {requirement}")


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
    manager_backend: str = checked("soft", choice("soft", "consensus"))
    #: profile storage behind the bench service: None keeps the
    #: profile-less bench service; "single" is the paper's one ACID
    #: database (a WAL, Section 2.3) and "dstore" the replicated brick
    #: store (three bricks, two replicas; repro.dstore), each behind
    #: the one ProfileStore front.
    profile_backend: Optional[str] = checked(
        None, choice(None, "single", "dstore"))
    #: service layer of the bench fabric: None keeps the plain bench
    #: service, "degradable" installs the brownout service and
    #: distiller (repro.degrade).
    service_backend: Optional[str] = checked(None, choice(None, "degradable"))

    # -- soft-state refresh --------------------------------------------------
    #: manager beacon period on the well-known multicast channel.
    beacon_interval_s: float = checked(0.5, positive())
    #: worker stub load-report period ("every half a second").
    report_interval_s: float = checked(0.5, positive())
    #: seconds without a load report before the manager presumes a
    #: worker dead (timeouts as the backup failure detector).
    worker_timeout_s: float = checked(5.0, positive())

    # -- spawn / reap policy --------------------------------------------------
    #: threshold H: spawn when a type's average queue length crosses it.
    spawn_threshold: float = checked(10.0, positive())
    #: damping D: seconds the spawner is disabled after each spawn.
    spawn_damping_s: float = checked(15.0, at_least(0))
    #: reap a worker when the type's average queue stays below
    #: REAP_THRESHOLD for this long, and more than MIN_WORKERS_PER_TYPE
    #: remain.
    reap_after_s: float = checked(60.0, at_least(0))
    #: recruit overflow-pool nodes when the dedicated pool is exhausted.
    use_overflow_pool: bool = checked(True, FLAG)

    # -- load balancing ----------------------------------------------------------
    #: "centralized" (the paper's design: the manager aggregates load
    #: and beacons hints) or "distributed" (the Section 2.2.2
    #: alternative the paper argues against: every worker multicasts its
    #: own load to every front end).  The manager still exists in
    #: distributed mode for spawning and process-peer duties; it just
    #: plays no part in balancing.
    balancing: str = checked(
        "centralized", choice("centralized", "distributed"))
    #: load metric (Section 3.1.2, footnote 2): "queue" counts waiting
    #: requests; "weighted-cost" weights each queued item by its
    #: expected cost in seconds — with it, spawn_threshold is literally
    #: "the greatest delay the user is willing to tolerate", in seconds.
    load_metric: str = checked("queue", choice("queue", "weighted-cost"))
    #: manager stubs extrapolate queue deltas between reports (the
    #: Section 4.5 oscillation fix); disable for the ablation.
    estimate_queue_deltas: bool = checked(True, FLAG)
    #: lottery-scheduling weight exponent: weight = 1/(1+queue)^gamma.
    lottery_gamma: float = checked(2.0, at_least(0))
    #: worker-selection policy at the manager stubs (repro.balance).
    #: Base names: lottery (the paper's default), round-robin,
    #: least-outstanding, p2c, ewma, weighted, hash-bounded; append
    #: "+eject" for passive outlier ejection (e.g. "ewma+eject").
    routing_policy: str = "lottery"
    #: per-dispatch timeout before the front end retries elsewhere.
    dispatch_timeout_s: float = checked(8.0, positive())
    #: dispatch attempts before falling back to the original content.
    dispatch_attempts: int = checked(2, count(1))
    #: per-request dispatch deadline; ``None`` means the full budget
    #: (``dispatch_attempts * dispatch_timeout_s``).  The deadline is
    #: propagated into each WorkEnvelope so downstream stages can shed
    #: work the client has already given up on.
    dispatch_deadline_s: Optional[float] = checked(
        None, positive(optional=True))

    # -- front ends -----------------------------------------------------------------
    #: thread-pool size ("about 400 threads").
    frontend_threads: int = checked(400, count(1))
    #: per-request TCP/kernel overhead at the front end; 14 ms gives the
    #: ~70 req/s per-FE ceiling measured in Section 4.6.
    frontend_connection_overhead_s: float = checked(0.014, at_least(0))

    #: load-shedding admission control: when set, a front end whose
    #: thread pool is exhausted *and* whose netstack backlog exceeds
    #: this many seconds refuses new requests immediately ("shed")
    #: instead of queueing them toward certain timeout.  ``None``
    #: disables shedding (the paper's original behaviour).
    admission_max_backlog_s: Optional[float] = checked(
        None, at_least(0, optional=True))
    #: shedding hysteresis: once shedding starts it continues until the
    #: netstack backlog falls back *below this* (< admission_max_
    #: backlog_s), instead of flapping on/off around the single
    #: threshold.  ``None`` keeps the legacy single-threshold switch.
    admission_exit_backlog_s: Optional[float] = checked(
        None, at_least(0, optional=True))

    # -- overload-amplification guards (repro.degrade.guards) ----------------
    #: retry budget: each first dispatch attempt earns this many retry
    #: tokens (capped at ``retry_budget_cap``); each retry spends one.
    #: Caps retry traffic to a fraction of fresh requests so timeouts
    #: cannot snowball into retry storms.  ``None`` = unlimited retries
    #: (the legacy behaviour).
    retry_budget_ratio: Optional[float] = checked(
        None, at_least(0, optional=True))
    retry_budget_cap: float = checked(20.0, at_least(1))
    #: origin circuit breaker of the degradable bench service (TranSend
    #: refuses it): consecutive failures (errors or fetches slower than
    #: ``ORIGIN_BREAKER_SLOW_S``) before the breaker opens; ``None``
    #: disables the breaker.  While open, origin fetches fail
    #: fast; after ``ORIGIN_BREAKER_COOLDOWN_S`` one half-open probe
    #: tests the origin again.
    origin_breaker_failures: Optional[int] = checked(
        None, count(1, optional=True))

    # -- brownout controller (repro.degrade.controller) ----------------------
    #: busiest front end's thread occupancy at which pressure reads 1
    #: (the other two signals' targets are DEGRADE_QUEUE_TARGET_S and
    #: DEGRADE_SHED_TARGET; pressure is the max of the three).
    degrade_util_target: float = checked(0.9, positive())

    # -- workers ----------------------------------------------------------------------
    #: worker stub queue capacity; beyond this, submissions are refused
    #: (the stub "accepts and queues requests on behalf of the
    #: distiller").
    worker_queue_capacity: int = checked(200, count(1))
    #: when True, worker stubs drop queued requests whose propagated
    #: deadline has already passed (the client gave up; executing the
    #: work would only add queueing delay for live requests).
    shed_expired_requests: bool = checked(False, FLAG)

    # -- partitions ----------------------------------------------------------
    #: soft-state backend only: a deposed manager that hears a beacon
    #: with a higher incarnation kills itself instead of beaconing
    #: forever from the minority side of a healed partition.
    manager_self_deposition: bool = checked(False, FLAG)

    def validate(self) -> "SNSConfig":
        """Refuse a field outside its declared domain, then the rules
        that join fields; each refusal names the field(s) and value(s)."""
        try:
            check_fields(self)
        except OutOfDomain as error:
            raise ConfigError(self, error.name, error.requirement) from None
        # late import: repro.balance typing never depends on config, but
        # importing it at module top would be a cycle risk for callers
        from repro.balance import PolicyError, parse_policy_spec
        try:
            parse_policy_spec(self.routing_policy)
        except PolicyError as error:
            raise ConfigError(self, "routing_policy",
                              f"must parse: {error}") from None
        if self.admission_exit_backlog_s is not None and (
                self.admission_max_backlog_s is None
                or self.admission_exit_backlog_s
                > self.admission_max_backlog_s):
            raise ConfigError(
                self, "admission_exit_backlog_s admission_max_backlog_s",
                "must have exit <= enter, with enter set")
        return self
