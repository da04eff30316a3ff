"""Pluggable routing policies for the manager stub.

The paper routes every request by lottery scheduling over stale queue
hints (Section 3.1.2).  That is one point in a large design space:
modern cluster balancers pick by power-of-two-choices, least
outstanding requests, EWMA latency, weighted/canary splits, or
consistent hashing with bounded loads for cache affinity.  This module
makes the choice pluggable: :class:`RoutingPolicy` is the interface,
``POLICIES`` the registry, and :func:`build_policy` the factory the
stub calls with ``config.routing_policy``.

Two contracts every policy must honour:

* **Determinism.**  Any randomness comes from the stub's own lottery
  stream (passed in as ``rng``); a policy draws from no other source,
  so two runs with the same seed stay byte-identical and policies that
  draw nothing (round-robin, least-outstanding, EWMA, hashing) never
  perturb streams shared with other subsystems.
* **Lottery identity.**  ``LotteryPolicy`` must reproduce the
  pre-refactor behaviour *exactly* — same weights, same single draw
  per pick — because the default configuration is pinned byte-identical
  across the whole seeded test suite.

Feedback hooks (``on_submit`` / ``on_reply`` / ``on_timeout``) give
policies a passive, per-dispatch signal that needs no new messages on
the SAN: the stub already observes every submit, reply, and timeout.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.hashing import Ring

#: EWMA weight for policy-side latency observations (the ewma policy
#: and the outlier ejector; distinct from the manager's
#: ``LOAD_EWMA_ALPHA`` so tuning one never skews the other).
EWMA_ALPHA = 0.3
#: "hash-bounded" policy: virtual nodes per worker on the ring.
HASH_RING_REPLICAS = 50
#: "hash-bounded" policy: a worker may carry at most this multiple of
#: the mean in-flight load before the request walks the ring.
HASH_BOUND = 1.25
#: "weighted" policy: traffic fraction routed to the canary (the most
#: recently spawned worker).
CANARY_FRACTION = 0.1


class PolicyError(ValueError):
    """Unknown policy name or malformed policy spec."""


class RoutingPolicy:
    """Interface for worker selection at one manager stub.

    ``select`` gets the stub's candidate adverts (in cache order, the
    same order the lottery always saw) and returns one of them.  The
    hooks are best-effort feedback from the dispatch path; the base
    implementations do nothing, so stateless policies stay trivial.
    """

    #: registry key; subclasses override.
    name = "abstract"
    #: True when ``select`` wants a content key (hash affinity); the
    #: stub only computes keys for policies that ask.
    needs_key = False

    def select(self, candidates: Sequence[Any], now: float,
               key: Optional[str]) -> Any:
        raise NotImplementedError

    # -- per-dispatch feedback (all optional) ------------------------------

    def on_submit(self, worker_name: str, now: float) -> None:
        """One envelope was handed to ``worker_name``."""

    def on_reply(self, worker_name: str, now: float,
                 latency_s: float) -> None:
        """A reply came back after ``latency_s`` (submit to reply)."""

    def on_timeout(self, worker_name: str, now: float) -> None:
        """The dispatch timer fired before ``worker_name`` replied."""

    def on_worker_removed(self, worker_name: str) -> None:
        """The stub dropped the worker's advert (refusal/timeout/death)."""

    def stats(self) -> Dict[str, Any]:
        """Counters for reports; empty for stateless policies."""
        return {}


class LotteryPolicy(RoutingPolicy):
    """The paper's policy: lottery scheduling over effective queues.

    weight = 1 / (1 + effective_queue)^gamma, one ``weighted_choice``
    draw per pick from the stub's ``lottery:{owner}`` stream.  This is
    a verbatim extraction of the pre-refactor ``ManagerStub.pick``
    arithmetic — byte-identical behaviour is a hard requirement.
    """

    name = "lottery"

    def __init__(self, config: Any, rng: Any) -> None:
        self.config = config
        self.rng = rng

    def select(self, candidates: Sequence[Any], now: float,
               key: Optional[str]) -> Any:
        # AdvertState.effective_queue inlined (same operands, same
        # order): no call and no max() per candidate
        if self.config.estimate_queue_deltas:
            queues = [(state.queue_avg
                       + state.slope * (now - state.received_at))
                      + state.sent_since_report for state in candidates]
        else:
            queues = [state.queue_avg for state in candidates]
        gamma = self.config.lottery_gamma
        weights = [1.0 / (1.0 + (queue if queue > 0.0 else 0.0)) ** gamma
                   for queue in queues]
        return self.rng.weighted_choice(candidates, weights)


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through candidates sorted by name.  No hints, no RNG.

    The sort keys the cycle to stable worker identity, not cache
    insertion order, so the rotation survives advert churn.
    """

    name = "round-robin"

    def __init__(self, config: Any, rng: Any) -> None:
        self._turn = 0

    def select(self, candidates: Sequence[Any], now: float,
               key: Optional[str]) -> Any:
        ordered = sorted(candidates,
                         key=lambda state: state.advert.worker_name)
        choice = ordered[self._turn % len(ordered)]
        self._turn += 1
        return choice


class _OutstandingTracker(RoutingPolicy):
    """Shared bookkeeping: per-worker in-flight request counts derived
    from the submit/reply/timeout hooks."""

    def __init__(self) -> None:
        self.outstanding: Dict[str, int] = {}

    def on_submit(self, worker_name: str, now: float) -> None:
        self.outstanding[worker_name] = \
            self.outstanding.get(worker_name, 0) + 1

    def _settle(self, worker_name: str) -> None:
        count = self.outstanding.get(worker_name, 0)
        if count > 1:
            self.outstanding[worker_name] = count - 1
        else:
            self.outstanding.pop(worker_name, None)

    def on_reply(self, worker_name: str, now: float,
                 latency_s: float) -> None:
        self._settle(worker_name)

    def on_timeout(self, worker_name: str, now: float) -> None:
        self._settle(worker_name)

    def on_worker_removed(self, worker_name: str) -> None:
        self.outstanding.pop(worker_name, None)

    def stats(self) -> Dict[str, Any]:
        return {"outstanding": dict(self.outstanding)}


class LeastOutstandingPolicy(_OutstandingTracker):
    """Pick the worker with the fewest locally-outstanding requests.

    Uses only this front end's own in-flight counts — no beacon
    staleness at all — with the advertised effective queue and then the
    name as deterministic tie-breakers.
    """

    name = "least-outstanding"

    def __init__(self, config: Any, rng: Any) -> None:
        super().__init__()
        self.config = config

    def select(self, candidates: Sequence[Any], now: float,
               key: Optional[str]) -> Any:
        estimate = self.config.estimate_queue_deltas
        return min(candidates, key=lambda state: (
            self.outstanding.get(state.advert.worker_name, 0),
            state.effective_queue(now, estimate),
            state.advert.worker_name,
        ))


class PowerOfTwoPolicy(RoutingPolicy):
    """Power of two choices: sample two distinct candidates uniformly,
    send to the one with the smaller effective queue.

    Two ``randint`` draws per pick (one when only one candidate pair is
    possible) from the stub's lottery stream — Mitzenmacher's result
    that two random probes get you exponentially better balance than
    one, without believing the full (stale) load vector.
    """

    name = "p2c"

    def __init__(self, config: Any, rng: Any) -> None:
        self.config = config
        self.rng = rng

    def select(self, candidates: Sequence[Any], now: float,
               key: Optional[str]) -> Any:
        n = len(candidates)
        if n == 1:
            return candidates[0]
        i = self.rng.randint(0, n - 1)
        j = self.rng.randint(0, n - 2)
        if j >= i:
            j += 1  # uniform over distinct unordered pairs
        estimate = self.config.estimate_queue_deltas
        first, second = candidates[i], candidates[j]
        load_i = first.effective_queue(now, estimate)
        load_j = second.effective_queue(now, estimate)
        if load_j < load_i:
            return second
        return first


class EwmaLatencyPolicy(_OutstandingTracker):
    """Peak-EWMA latency picking (the Finagle balancer's trick).

    Score every candidate by its exponentially-smoothed observed
    latency multiplied by (1 + outstanding): the latency term is
    passive feedback from this stub's own replies, the outstanding term
    both penalizes pile-ups and gives cold workers a finite score.
    Workers with no local samples yet fall back to the advertised
    ``service_ewma_s`` (worker-measured service time carried in load
    reports), so a fresh stub still prefers demonstrably faster
    workers.  Timeouts are folded in as worst-case latency samples.
    No RNG draws.
    """

    name = "ewma"

    def __init__(self, config: Any, rng: Any) -> None:
        super().__init__()
        self.config = config
        self.timeout_penalty_s = 2.0 * config.dispatch_timeout_s
        self.ewma: Dict[str, float] = {}

    def _observe(self, worker_name: str, latency_s: float) -> None:
        prior = self.ewma.get(worker_name)
        if prior is None:
            self.ewma[worker_name] = latency_s
        else:
            self.ewma[worker_name] = (EWMA_ALPHA * latency_s
                                      + (1.0 - EWMA_ALPHA) * prior)

    def on_reply(self, worker_name: str, now: float,
                 latency_s: float) -> None:
        super().on_reply(worker_name, now, latency_s)
        self._observe(worker_name, latency_s)

    def on_timeout(self, worker_name: str, now: float) -> None:
        super().on_timeout(worker_name, now)
        self._observe(worker_name, self.timeout_penalty_s)

    def on_worker_removed(self, worker_name: str) -> None:
        super().on_worker_removed(worker_name)
        # keep the EWMA: if the worker re-registers under the same name
        # its history is still the best predictor we have

    def _score(self, state: Any, now: float) -> Tuple[float, str]:
        name = state.advert.worker_name
        latency = self.ewma.get(name)
        if latency is None:
            latency = getattr(state.advert, "service_ewma_s", 0.0) or 0.0
        pending = self.outstanding.get(name, 0)
        return (latency * (1.0 + pending) + 1e-9 * pending, name)

    def select(self, candidates: Sequence[Any], now: float,
               key: Optional[str]) -> Any:
        return min(candidates, key=lambda state: self._score(state, now))

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["latency_ewma_s"] = dict(self.ewma)
        return out


class WeightedCanaryPolicy(RoutingPolicy):
    """Weighted split: the newest worker (the canary) gets a fixed
    traffic fraction, the rest share the remainder uniformly.

    The canary is the lexicographically-last worker name — worker names
    carry a monotonically increasing spawn sequence, so this is the
    most recently placed instance.  One ``weighted_choice`` draw per
    pick.
    """

    name = "weighted"

    def __init__(self, config: Any, rng: Any) -> None:
        self.rng = rng

    def select(self, candidates: Sequence[Any], now: float,
               key: Optional[str]) -> Any:
        if len(candidates) == 1:
            return candidates[0]
        canary = max(candidates,
                     key=lambda state: _spawn_order(
                         state.advert.worker_name))
        baseline = (1.0 - CANARY_FRACTION) / (len(candidates) - 1)
        weights = [
            CANARY_FRACTION if state is canary else baseline
            for state in candidates
        ]
        return self.rng.weighted_choice(candidates, weights)


def _spawn_order(worker_name: str) -> Tuple[int, str]:
    """Sort key putting the most recently spawned worker last: numeric
    spawn-sequence suffix when present, else lexicographic."""
    head, _, tail = worker_name.rpartition(".")
    if head and tail.isdigit():
        return (int(tail), head)
    return (-1, worker_name)


class BoundedLoadHashPolicy(_OutstandingTracker):
    """Consistent hashing with bounded loads (Mirrokni et al.).

    Requests hash by content key onto a ring of virtual nodes, giving
    cache affinity: the same URL keeps landing on the same worker, so
    its working set stays hot.  The "bounded loads" part keeps affinity
    from defeating balance: a worker already carrying more than
    ``ceil(HASH_BOUND × mean outstanding)`` in-flight requests is
    skipped and the request walks clockwise to the next admissible
    worker.  No RNG draws.
    """

    name = "hash-bounded"
    needs_key = True

    def __init__(self, config: Any, rng: Any) -> None:
        super().__init__()
        self._ring = Ring()
        self._ring_members: frozenset = frozenset()
        self.overflow_hops = 0

    def select(self, candidates: Sequence[Any], now: float,
               key: Optional[str]) -> Any:
        by_name = {state.advert.worker_name: state
                   for state in candidates}
        names = frozenset(by_name)
        if names != self._ring_members:
            self._ring = Ring(names, HASH_RING_REPLICAS)
            self._ring_members = names
        total = sum(self.outstanding.get(name, 0) for name in names)
        # each worker may carry at most HASH_BOUND x the fair share of
        # in-flight requests (counting the one about to be placed)
        bound = max(1.0, HASH_BOUND * (total + 1) / len(names))
        owner = None
        for name in self._ring.walk(key if key is not None else ""):
            if owner is None:
                owner = name  # ring-order fallback if all are full
            if self.outstanding.get(name, 0) + 1 <= bound:
                if name != owner:
                    self.overflow_hops += 1
                return by_name[name]
        return by_name[owner]

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["overflow_hops"] = self.overflow_hops
        return out


#: registry: spec base name -> policy class.
POLICIES: Dict[str, type] = {
    policy.name: policy
    for policy in (
        LotteryPolicy,
        RoundRobinPolicy,
        LeastOutstandingPolicy,
        PowerOfTwoPolicy,
        EwmaLatencyPolicy,
        WeightedCanaryPolicy,
        BoundedLoadHashPolicy,
    )
}

#: wrapper names accepted after ``+`` in a policy spec.
WRAPPERS = ("eject",)


def available_policies() -> List[str]:
    """All base policy names, sorted for help text."""
    return sorted(POLICIES)


def parse_policy_spec(spec: str) -> Tuple[str, List[str]]:
    """Split ``"ewma+eject"`` into (base, wrappers); raise on a spec
    that is not a string, an unknown name or a repeated wrapper."""
    if not isinstance(spec, str):
        raise PolicyError(f"a policy spec is a string, not {spec!r}")
    parts = [part.strip() for part in spec.split("+")]
    base, wrappers = parts[0], parts[1:]
    if base not in POLICIES:
        raise PolicyError(
            f"unknown routing policy {base!r}; "
            f"known: {', '.join(available_policies())}")
    for at, wrapper in enumerate(wrappers):
        if wrapper not in WRAPPERS:
            raise PolicyError(
                f"unknown policy wrapper {wrapper!r}; "
                f"known: {', '.join(WRAPPERS)}")
        if wrapper in wrappers[:at]:
            raise PolicyError(f"policy wrapper {wrapper!r} repeated")
    return base, wrappers


def build_policy(spec: str, config: Any, rng: Any) -> RoutingPolicy:
    """Instantiate the policy named by ``spec`` (e.g. ``"p2c"``,
    ``"ewma+eject"``) for one manager stub."""
    base, wrappers = parse_policy_spec(spec)
    policy = POLICIES[base](config, rng)
    for wrapper in wrappers:
        if wrapper == "eject":
            from repro.balance.ejection import OutlierEjector
            policy = OutlierEjector(policy)
    return policy


def request_key(work: Any) -> Optional[str]:
    """Content-affinity key for hash routing: the input URL when there
    is one, else the user id, else None (policy falls back to a fixed
    ring point plus the load bound)."""
    inputs = work.inputs
    if inputs and inputs[0].url:
        return str(inputs[0].url)
    if work.user_id:
        return str(work.user_id)
    return None
