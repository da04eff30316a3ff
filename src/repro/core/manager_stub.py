"""The manager stub: load-balancing hints cached at each front end.

"The manager stub (at the front end) caches the information in these
beacons and uses lottery scheduling to select a distiller for each
request.  The cached information provides a backup so that the system can
continue to operate (using slightly stale load data) even if the manager
crashes" (Section 3.1.2).

The stub also carries the Section 4.5 oscillation fix: "we changed the
manager stub to keep a running estimate of the change in distiller queue
lengths between successive reports; these estimates were sufficient to
eliminate the oscillations."  :class:`AdvertState` holds that estimate —
a per-worker queue slope extrapolated between beacons, plus a count of
requests this front end itself dispatched since the last report.  Both
corrections are gated by ``config.estimate_queue_deltas`` so the
benchmark suite can reproduce the oscillation as an ablation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.balance import build_policy, request_key
from repro.core.config import (CONSENSUS_LEASE_S, DISPATCH_BACKOFF_BASE_S,
                               DISPATCH_BACKOFF_CAP_S, DISPATCH_BACKOFF_FACTOR,
                               DISPATCH_BACKOFF_JITTER, SNSConfig)
from repro.core.messages import (ManagerBeacon, Request, WorkEnvelope,
                                 WorkerAdvert)
from repro.sim.cluster import Cluster
from repro.sim.kernel import TIMED_OUT, TimedWait
from repro.sim.rng import Stream
from repro.tacc.worker import WorkerError


class DispatchError(Exception):
    """No worker could serve the request within the dispatch budget.

    The front end catches this and falls back in a service-specific way
    (TranSend returns the original content — BASE approximate answers).
    """


class AdvertState:
    """The stub's (stale) view of one worker, with delta estimation."""

    def __init__(self, advert: WorkerAdvert, now: float) -> None:
        self.advert = advert
        self.queue_avg = advert.queue_avg
        self.received_at = now
        #: queue-length change per second between the last two load
        #: samples (0.0 until there are two, at distinct times).  Written
        #: only by refresh(); read once per candidate per pick.
        self.slope = 0.0
        self.sent_since_report = 0

    def refresh(self, advert: WorkerAdvert, now: float) -> None:
        if advert.last_report_at != self.advert.last_report_at:
            # a genuinely newer load sample
            self.slope = ((advert.queue_avg - self.queue_avg)
                          / (now - self.received_at)
                          if now > self.received_at else 0.0)
            self.queue_avg = advert.queue_avg
            self.received_at = now
            self.sent_since_report = 0
        self.advert = advert

    def effective_queue(self, now: float, estimate_deltas: bool) -> float:
        """The queue length the lottery should believe right now.
        (`LotteryPolicy.select` inlines this arithmetic; keep them in
        step — tests/test_request_path_folds.py compares the bits.)"""
        value = self.queue_avg
        if estimate_deltas:
            value = (value + self.slope * (now - self.received_at)) \
                + self.sent_since_report
        return value if value > 0.0 else 0.0


class ManagerStub:
    """Beacon cache + pluggable worker selection + dispatch engine.

    Selection is delegated to a :mod:`repro.balance` policy
    (``config.routing_policy``); the default reproduces the paper's
    lottery scheduling exactly.
    """

    def __init__(self, cluster: Cluster, config: SNSConfig, owner_name: str,
                 rng: Stream, node: Optional[Any] = None) -> None:
        self.cluster = cluster
        self.config = config
        self.owner_name = owner_name
        #: the node hosting the owning front end, when known: lets the
        #: stub notice that a hint or the manager itself sits on the far
        #: side of a SAN partition.
        self.node = node
        self.rng = rng
        #: dedicated stream for retry-backoff jitter: deterministic per
        #: seed+owner, and drawing from it never perturbs the lottery.
        self.backoff_rng = cluster.streams.stream(
            f"backoff:{owner_name}")
        #: pluggable worker-selection policy (repro.balance).  The
        #: default, "lottery", reproduces the paper's lottery draw
        #: byte-for-byte; every policy draws only from ``self.rng`` (or
        #: nothing), so the stream discipline is unchanged.
        self.policy = build_policy(config.routing_policy, config,
                                   self.rng)
        #: retry budget (repro.degrade.guards.RetryBudget): retries
        #: capped to a fraction of fresh requests; ``None`` = the legacy
        #: unlimited-retry behaviour.
        self.retry_budget: Optional[Any] = None
        if config.retry_budget_ratio is not None:
            from repro.degrade.guards import RetryBudget
            self.retry_budget = RetryBudget(config.retry_budget_ratio,
                                            config.retry_budget_cap)
        self.manager: Optional[Any] = None
        self.manager_incarnation: Optional[int] = None
        #: supervision hook: called with the worker name on every
        #: dispatch timeout, so the recovery layer can kill-and-restart
        #: hung workers ("the RPC call times out and the distiller is
        #: restarted", Section 4.5).  None when no supervisor is wired.
        self.on_worker_timeout: Optional[Any] = None
        self.last_beacon_at: Optional[float] = None
        #: absolute time through which the current hints are covered by
        #: a leader lease (consensus beacons only); ``None`` = no bound.
        self.lease_until: Optional[float] = None
        self.adverts: Dict[str, AdvertState] = {}
        # counters
        self.dispatches = 0
        self.retries = 0
        self.timeouts = 0
        self.worker_errors = 0
        self.deadline_expiries = 0
        self.backoff_waits = 0
        #: beacons refused for carrying an incarnation lower than one
        #: already seen (a partitioned-then-healed old manager).
        self.stale_beacons_rejected = 0
        #: dispatches routed on a view staler than the consensus
        #: staleness bound (``CONSENSUS_LEASE_S``).  The soft backend
        #: racks these up during partitions — it has no bound; the
        #: consensus stub stalls instead, so it stays at zero.
        self.wrong_decisions = 0
        #: pick() refusals because the leader lease had lapsed.
        self.lease_stalls = 0
        #: submits that crossed an active SAN partition to a worker the
        #: front end could not actually reach (accounting only; the
        #: dispatch timeout does the recovering).
        self.partition_misroutes = 0
        #: cumulative seconds dispatches spent waiting with no usable
        #: hint, and the longest beacon silence observed (the uniform
        #: failover-latency measure across manager backends).
        self.stall_s = 0.0
        self.beacon_gap_max_s = 0.0

    @property
    def retry_budget_denials(self) -> int:
        return 0 if self.retry_budget is None \
            else self.retry_budget.denials

    # -- beacon intake -----------------------------------------------------------

    def observe_beacon(self, beacon: ManagerBeacon) -> bool:
        """Update caches from a manager beacon; returns True when this is
        a new manager incarnation (the front end must re-register).

        Beacons with an incarnation *lower* than one already seen are
        rejected outright: a manager that was partitioned away and
        healed back keeps beaconing its old incarnation, and letting it
        roll the stub's view back would resurrect dead hints and
        re-register the front end with a deposed manager.
        """
        now = self.cluster.env.now
        if (self.manager_incarnation is not None
                and beacon.incarnation < self.manager_incarnation):
            self.stale_beacons_rejected += 1
            return False
        if self.last_beacon_at is not None:
            self.beacon_gap_max_s = max(self.beacon_gap_max_s,
                                        now - self.last_beacon_at)
        self.last_beacon_at = now
        new_incarnation = beacon.incarnation != self.manager_incarnation
        self.manager = beacon.manager
        self.manager_incarnation = beacon.incarnation
        self.lease_until = beacon.lease_until
        if self.config.balancing == "distributed":
            # balancing state comes from the workers' own announcements;
            # the beacon is only manager discovery here
            return new_incarnation
        # "The manager reports distiller failures to the manager stubs,
        # which update their caches of where distillers are running."
        for name in list(self.adverts):
            if name not in beacon.adverts:
                del self.adverts[name]
                self.policy.on_worker_removed(name)
        for name, advert in beacon.adverts.items():
            if name in self.adverts:
                self.adverts[name].refresh(advert, now)
            else:
                self.adverts[name] = AdvertState(advert, now)
        return new_incarnation

    def observe_worker_advert(self, advert: WorkerAdvert) -> None:
        """Distributed-mode intake: one worker's self-announcement."""
        now = self.cluster.env.now
        name = advert.worker_name
        if name in self.adverts:
            self.adverts[name].refresh(advert, now)
        else:
            self.adverts[name] = AdvertState(advert, now)

    def beacon_age(self) -> float:
        if self.last_beacon_at is None:
            return float("inf")
        return self.cluster.env.now - self.last_beacon_at

    # -- worker selection -----------------------------------------------------------

    def candidates(self, worker_type: str) -> List[AdvertState]:
        if self.config.balancing == "distributed":
            # nobody curates the cache for us: expire silent workers
            deadline = self.cluster.env.now - self.config.worker_timeout_s
            for name in list(self.adverts):
                if self.adverts[name].received_at < deadline:
                    del self.adverts[name]
                    self.policy.on_worker_removed(name)
        return [state for state in self.adverts.values()
                if state.advert.worker_type == worker_type]

    def hints_usable(self, now: float) -> bool:
        """Is the cached view inside its staleness bound?  Soft-state
        beacons carry no bound (always usable, however stale); a
        consensus leader's hints expire with its lease."""
        return self.lease_until is None or now <= self.lease_until

    def pick(self, worker_type: str,
             key: Optional[str] = None) -> Optional[AdvertState]:
        """Select a worker via the configured routing policy (the
        default is the paper's lottery over possibly-stale hints)."""
        now = self.cluster.env._now
        if not (self.lease_until is None or now <= self.lease_until):
            # not hints_usable(now): the lease lapsed, routing on these
            # hints would be a minority-view decision, so stall until a
            # live leader beacons again
            self.lease_stalls += 1
            return None
        candidates = self.candidates(worker_type)
        if not candidates:
            return None
        return self.policy.select(candidates, now, key)

    # -- dispatch -------------------------------------------------------------------------

    def _backoff_delay(self, retry_number: int) -> float:
        """Exponential backoff with deterministic jitter for retry n>=1.

        Base doubles (``DISPATCH_BACKOFF_FACTOR``) per retry up to the
        cap; the jitter draw comes from :attr:`backoff_rng`, so delays
        are reproducible per seed yet desynchronized across front ends
        (no retry storms when a whole lossy window times out at once).
        The cap is applied *after* the jitter multiply: it is a hard
        ceiling on the wait, not on the pre-jitter base (an up-jittered
        delay must never exceed ``DISPATCH_BACKOFF_CAP_S``).
        """
        jitter = DISPATCH_BACKOFF_JITTER * (self.backoff_rng.random() - 0.5)
        return min(DISPATCH_BACKOFF_CAP_S,
                   DISPATCH_BACKOFF_BASE_S
                   * DISPATCH_BACKOFF_FACTOR ** (retry_number - 1)
                   * (1.0 + jitter))

    def dispatch(self, request: Request, work: Any, worker_type: str):
        """Process generator: route ``work`` (a TACC request) for the
        front end's ``request`` to a worker of the type.

        Retries with fresh lottery draws on refusal or timeout, pausing
        for exponentially backed-off, jittered delays between retries;
        asks the manager (spawning on demand) when no hint exists.  The
        whole dispatch respects a per-request deadline
        (``config.dispatch_deadline_s``, or the full attempts × timeout
        budget), written to ``request.deadline_at`` so worker stubs can
        shed expired work.  Each attempt ships ``work.inputs[0]`` across
        the SAN in a :class:`WorkEnvelope`, which is its own reply.
        Raises :class:`DispatchError` when the attempt budget or the
        deadline is exhausted, or the worker's own :class:`WorkerError`
        for pathological input (which would fail anywhere — no point
        retrying).
        """
        env = self.cluster.env
        config = self.config
        # bound once: nothing rebinds these while a dispatch is in flight
        policy = self.policy
        retry_budget = self.retry_budget
        network = self.cluster.network
        timeout_s = config.dispatch_timeout_s
        self.dispatches += 1
        if retry_budget is not None:
            retry_budget.earn()
        deadline_s = config.dispatch_deadline_s
        if deadline_s is None:
            deadline_s = config.dispatch_attempts * timeout_s
        request.deadline_at = deadline_at = env._now + deadline_s
        input_bytes = work.inputs[0].size
        key = request_key(work) if policy.needs_key else None
        trace = request.trace
        span = None
        if trace is not None:
            span = trace.child("dispatch", "queueing",
                               component=self.owner_name)
            span.annotate(worker_type=worker_type)
        try:
            for attempt in range(config.dispatch_attempts):
                if attempt > 0:
                    if retry_budget is not None \
                            and not retry_budget.try_spend():
                        # budget exhausted: a retry storm is exactly
                        # what would follow — fail over to the
                        # caller's fallback instead
                        raise DispatchError(
                            f"retry budget exhausted for "
                            f"{worker_type!r}")
                    self.retries += 1
                    backoff = self._backoff_delay(attempt)
                    if backoff > 0:
                        if env._now + backoff >= deadline_at:
                            self.deadline_expiries += 1
                            raise DispatchError(
                                f"deadline exhausted for {worker_type!r}")
                        self.backoff_waits += 1
                        mark = env._now
                        yield env.timeout(backoff)
                        if span is not None:
                            span.record("backoff", "queueing", mark,
                                        attempt=attempt)
                if deadline_at - env._now <= 0:
                    self.deadline_expiries += 1
                    raise DispatchError(
                        f"deadline exhausted for {worker_type!r}")
                state = self.pick(worker_type, key)
                if state is None:
                    state = yield from self._wait_for_worker(
                        worker_type, key, deadline_at)
                    if state is None:
                        raise DispatchError(
                            f"no {worker_type!r} worker available")
                submitted_at = env._now
                envelope = WorkEnvelope(env, request, work, span)
                # ship the input across the SAN
                yield env.timeout(network.transfer_delay(input_bytes))
                now = env._now
                if span is not None:
                    span.record("san-transfer", "network", submitted_at,
                                bytes=input_bytes)
                if deadline_at - now <= 0.0:
                    # the SAN transfer ate the last of the deadline: a
                    # zero-budget reply timer would fire instantly and
                    # masquerade as a worker timeout — popping a healthy
                    # worker's advert and telling the supervisor to kill
                    # it.  This is a deadline expiry, nothing more.
                    self.deadline_expiries += 1
                    raise DispatchError(
                        f"deadline exhausted for {worker_type!r}")
                advert = state.advert
                worker_name = advert.worker_name
                if (self.lease_until is None
                        and self.last_beacon_at is not None
                        and now - self.last_beacon_at
                        > CONSENSUS_LEASE_S):
                    # routing on a view staler than the consensus
                    # staleness bound: the decision a lease-holding
                    # leader would never have let happen
                    self.wrong_decisions += 1
                partitions = network.partitions
                if (partitions is not None and self.node is not None
                        and not partitions.node_reachable(
                            self.node.name, advert.node_name)):
                    # a SAN partition blackholes the submit: nothing is
                    # delivered, the dispatch timeout does the recovering
                    self.partition_misroutes += 1
                elif not advert.stub.submit(envelope):
                    # queue full: connection refused, try another
                    # worker now
                    self.adverts.pop(worker_name, None)
                    policy.on_worker_removed(worker_name)
                    continue
                state.sent_since_report += 1
                policy.on_submit(worker_name, now)
                # max(0.0, min(timeout_s, what is left of the deadline))
                wait = deadline_at - now
                if not wait < timeout_s:
                    wait = timeout_s
                try:
                    outcome = yield TimedWait(
                        env, envelope, wait if wait > 0.0 else 0.0)
                except WorkerError:
                    self.worker_errors += 1
                    now = env._now
                    policy.on_reply(worker_name, now, now - submitted_at)
                    raise
                now = env._now
                if outcome is not TIMED_OUT:
                    policy.on_reply(worker_name, now, now - submitted_at)
                    if span is not None:
                        span.annotate(
                            attempts=attempt + 1,
                            worker=worker_name)
                    return outcome
                # "if a request is sent to a worker that no longer exists,
                # the request will time out and another worker will be
                # chosen."
                self.timeouts += 1
                policy.on_timeout(worker_name, now)
                self.adverts.pop(worker_name, None)
                policy.on_worker_removed(worker_name)
                if self.on_worker_timeout is not None:
                    self.on_worker_timeout(worker_name)
            raise DispatchError(
                f"dispatch budget exhausted for {worker_type!r}")
        except BaseException as error:
            if span is not None:
                span.annotate(error=type(error).__name__)
            raise
        finally:
            if span is not None:
                span.finish()

    def _manager_reachable(self, manager: Any) -> bool:
        """Can this front end talk to the manager right now?  Direct
        locate-worker calls must not pretend to cross a partition."""
        partitions = self.cluster.network.partitions
        if partitions is None or self.node is None:
            return True
        return partitions.node_reachable(self.node.name,
                                         manager.node.name)

    def _wait_for_worker(self, worker_type: str, key: Optional[str],
                         deadline_at: Optional[float] = None):
        """No cached hint: ask the manager (triggering an on-demand
        spawn) and poll until an advert appears or the budget runs out.

        Each poll sleep is clamped to the remaining budget: a full
        ``beacon_interval_s`` step from just inside the deadline would
        overshoot it by up to one interval, silently stretching the
        per-dispatch deadline the caller was promised.
        """
        env = self.cluster.env
        started_at = env.now
        deadline = env.now + self.config.dispatch_timeout_s
        if deadline_at is not None:
            deadline = min(deadline, deadline_at)
        try:
            while env.now < deadline:
                manager = self.manager
                if manager is not None \
                        and self._manager_reachable(manager):
                    advert = manager.request_worker(worker_type)
                    if advert is not None:
                        now = env.now
                        name = advert.worker_name
                        if name in self.adverts:
                            self.adverts[name].refresh(advert, now)
                        else:
                            self.adverts[name] = AdvertState(advert, now)
                        return self.adverts[name]
                yield env.timeout(min(self.config.beacon_interval_s,
                                      deadline - env.now))
                state = self.pick(worker_type, key)
                if state is not None:
                    return state
            return None
        finally:
            self.stall_s += env.now - started_at
