"""The consensus-replicated manager: three replicas, one lease.

:class:`Paxos` is a replication strategy of the one
:class:`~repro.core.manager.Manager` class, so workers, front ends, the
supervisor, and the chaos invariants see the exact same API and the
beacon, policy, registration, expiry and reap code exists once.  The
strategy answers the manager's two questions — ``may_act()`` from its
lease, ``submit(op)`` by proposing membership facts to its log —
because the decisions that must not split across a partition (worker
membership, the load table, leadership itself) are entries in a
multi-Paxos replicated log spoken over the SAN multicast
(:data:`~repro.core.messages.CONSENSUS_GROUP`).  The transport is the
same unreliable datagram fabric the beacons ride; the *protocol*
supplies the reliability, which is why the Paxos safety test can reuse
the lossy-SAN fault knobs directly.

Leadership and the lease
------------------------

Ballots encode ``round * n + replica_index``, so they are totally
ordered, owner-disjoint, and monotonic across failovers — which lets
the current leader ballot double as the beacon ``incarnation`` the SNS
stubs already understand.  The leader renews a **lease** by committing
no-op "tick" entries (which also snapshot the load table): each chosen
entry at its own ballot extends ``lease_until`` by
``CONSENSUS_LEASE_S``.  A leader that cannot commit — it is dead, or on
the minority side of a partition — watches its lease lapse and simply
stops: no beacons, no registrations, no dispatch hints.  A follower
stands for election only after observing ``lease + election_timeout +
stagger * index`` seconds of log silence; since its view of the log is
never *older* than the deposed leader's last commit, the old lease has
provably lapsed before a new leader can be chosen.  Under the
simulator's single clock this gives at most one active leader at any
instant, hence zero wrong-decision dispatch hints by construction.
Election timeouts are deterministically staggered by replica index
instead of randomized, so campaigns never collide and runs stay
byte-identical at any fan-out.

Crash-restart keeps each replica's acceptor/learner state on the
object (the moral equivalent of Paxos's stable storage); only the soft
manager state (live registrations, endpoints) evaporates, exactly as
in the paper's restart story.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.consensus.log import AcceptorLog, LearnerLog
from repro.consensus.paxos import (
    Accepted,
    AcceptRequest,
    Chosen,
    Prepare,
    Promise,
    SyncRequest,
    ballot_owner,
    make_ballot,
)
from repro.core.config import CONSENSUS_LEASE_S
from repro.core.manager import Manager
from repro.core.messages import CONSENSUS_BYTES, CONSENSUS_GROUP, WorkerAdvert

#: Chosen-rebroadcast window per SyncRequest (bounds catch-up traffic).
SYNC_WINDOW = 64
#: manager replicas when the fabric runs the consensus backend (odd).
N_REPLICAS = 3
#: period of the leader's no-op "tick" commits that renew the lease.
TICK_S = 0.5
#: how long a follower waits after the lease lapses before standing
#: for election...
ELECTION_TIMEOUT_S = 1.0
#: ...staggered per replica index so candidates do not collide
#: (deterministic — no randomized election timers needed).
ELECTION_STAGGER_S = 0.3


class Paxos:
    """Replication by consensus, for one of the three manager replicas.
    All replicas run acceptor and learner roles for every log slot; the
    lease holder additionally plays proposer, beacons, and serves the
    manager API."""

    monitor_extra = {"role": "leader"}

    def __init__(self, manager: Manager, index: int,
                 group: "ReplicatedManagerGroup") -> None:
        self.manager = manager
        self.env = manager.env
        self.name = manager.name
        self.index = index
        self.group = group
        self.quorum = N_REPLICAS // 2 + 1
        # -- paxos state (survives crash-restart: "stable storage") ----
        self.acceptor_log = AcceptorLog()
        self.learner_log = LearnerLog(self.quorum, self._apply)
        #: my current campaign/leadership ballot (-1: never campaigned).
        self.ballot = -1
        #: ballot of the highest-ballot chosen entry seen (the regime).
        self.leader_ballot = -1
        # -- replicated state machine (identical on every replica) -----
        #: committed worker membership: name -> (worker type, node
        #: name, stub), as registered.
        self.member_workers: Dict[str, Tuple[str, str, Any]] = {}
        #: committed load table: name -> queue_avg snapshot.
        self.load_table: Dict[str, float] = {}
        # -- volatile leadership state ---------------------------------
        self.last_chosen_at = self.env.now
        self.lease_until = float("-inf")
        self._campaigning = False
        self._campaign_started_at = 0.0
        self._campaign_from = 0
        self._promises: Dict[str, Dict[int, Tuple[int, Any]]] = {}
        self._inflight: Dict[int, Any] = {}
        self._next_slot = 0
        self._max_slot_seen = -1
        self._took_over_at = self.env.now
        #: committed members with no live registration, and since when
        #: (the new-leader grace before proposing their expiry).
        self._member_unseen_since: Dict[str, float] = {}
        self._subscription = None
        # counters
        self.campaigns_started = 0

    # -- role predicates -----------------------------------------------------

    def may_act(self) -> bool:
        """Leader *with a live lease*: the only state in which this
        replica beacons, registers, or hands out dispatch hints."""
        return (self.manager.alive and self.ballot >= 0
                and self.leader_ballot == self.ballot
                and ballot_owner(self.ballot, N_REPLICAS) == self.index
                and self.env.now < self.lease_until)

    # -- processes ------------------------------------------------------------

    def start(self) -> None:
        manager = self.manager
        self.last_chosen_at = self.env.now
        self._subscription = manager.cluster.multicast.group(
            CONSENSUS_GROUP).subscribe(self.name)
        manager.spawn(self._consensus_loop())
        manager.spawn(self._steer_loop())
        manager.start_ticks()
        if self.index == 0 and self.leader_ballot < 0:
            # bootstrap: replica 0 campaigns immediately so the fabric
            # has a leader before the first requests arrive
            self._start_campaign()

    def _publish(self, message: Any) -> None:
        self.manager.cluster.multicast.group(CONSENSUS_GROUP).publish(
            message, size_bytes=CONSENSUS_BYTES, sender=self.name)

    # -- the consensus message pump ------------------------------------------

    def _consensus_loop(self):
        subscription = self._subscription
        handlers = {
            Prepare: self._on_prepare, Promise: self._on_promise,
            AcceptRequest: self._on_accept_request,
            Accepted: self._on_accepted, Chosen: self._on_chosen_msg,
            SyncRequest: self._on_sync_request}
        while True:
            message = yield subscription.get()
            if not self.manager.alive:
                return
            handler = handlers.get(type(message))
            if handler is not None:
                handler(message)

    def _on_prepare(self, message: Prepare) -> None:
        if (message.sender != self.name and self.leader_ballot >= 0
                and message.ballot > self.leader_ballot
                and self.env.now - self.last_chosen_at
                < CONSENSUS_LEASE_S):
            # Leader stickiness (the PreVote/CheckQuorum idea): this
            # acceptor is still hearing a live leader's commits, so it
            # refuses to help depose it.  A candidate healing back from
            # the minority side therefore cannot steal leadership; it
            # catches up instead and abandons its campaign.
            return
        ok, accepted = self.acceptor_log.on_prepare(
            message.ballot, message.slot)
        if ok:
            self._publish(Promise(
                slot=message.slot, ballot=message.ballot,
                sender=self.name, to=message.sender, accepted=accepted))

    def _on_promise(self, message: Promise) -> None:
        if (message.to != self.name or not self._campaigning
                or message.ballot != self.ballot):
            return
        self._promises[message.sender] = dict(message.accepted)
        if len(self._promises) < self.quorum:
            return
        # quorum: merge the highest-ballot acceptance per slot (the
        # single-decree proposer rule, applied slot-wise)
        merged: Dict[int, Tuple[int, Any]] = {}
        for accepted in self._promises.values():
            for slot, (acc_ballot, acc_value) in accepted.items():
                best = merged.get(slot)
                if best is None or acc_ballot > best[0]:
                    merged[slot] = (acc_ballot, acc_value)
        self._campaigning = False
        top = max(merged) if merged else self._campaign_from - 1
        self._next_slot = max(self._campaign_from, top + 1,
                              self.learner_log.first_unchosen())
        # re-drive every undecided slot at my ballot: discovered values
        # verbatim, gaps as no-ops (they may have been chosen elsewhere)
        for slot in range(self._campaign_from, self._next_slot):
            if self.learner_log.is_chosen(slot):
                continue
            value = merged[slot][1] if slot in merged else ("gap",)
            self._drive(slot, value)
        # my first fresh entry: when chosen, leader_ballot becomes my
        # ballot and the lease starts — that commit IS the election win
        self._propose(("lead", self.name))

    def _on_accept_request(self, message: AcceptRequest) -> None:
        if self.acceptor_log.on_accept(message.slot, message.ballot,
                                       message.value):
            self._max_slot_seen = max(self._max_slot_seen, message.slot)
            self._publish(Accepted(
                slot=message.slot, ballot=message.ballot,
                value=message.value, sender=self.name))

    def _on_accepted(self, message: Accepted) -> None:
        if self.learner_log.is_chosen(message.slot):
            return
        self.learner_log.on_accepted(
            message.slot, message.sender, message.ballot, message.value)
        if self.learner_log.is_chosen(message.slot):
            self._note_chosen_slot(message.slot)

    def _on_chosen_msg(self, message: Chosen) -> None:
        if self.learner_log.is_chosen(message.slot):
            return
        self.learner_log.on_chosen(
            message.slot, message.ballot, message.value)
        self._note_chosen_slot(message.slot)

    def _on_sync_request(self, message: SyncRequest) -> None:
        if not self.may_act() or message.sender == self.name:
            return
        first = message.first_unchosen
        for slot in range(first, first + SYNC_WINDOW):
            entry = self.learner_log.chosen.get(slot)
            if entry is not None:
                self._publish(Chosen(slot=slot, ballot=entry[0],
                                     value=entry[1], sender=self.name))

    def _note_chosen_slot(self, slot: int) -> None:
        """Bookkeeping for one newly chosen slot (whether or not it is
        applicable yet): regime tracking, lease renewal, campaign
        abandonment, and the leader's Chosen rebroadcast."""
        now = self.env.now
        ballot, value = self.learner_log.chosen[slot]
        self._max_slot_seen = max(self._max_slot_seen, slot)
        mine = ballot_owner(ballot, N_REPLICAS) == self.index
        if ballot > self.leader_ballot:
            # regime change: account the leaderless gap first
            stalled = max(0.0, now - (self.last_chosen_at
                                      + CONSENSUS_LEASE_S))
            self.leader_ballot = ballot
            self.group.note_regime(ballot, now, stalled)
            if mine:
                self._took_over_at = now
                self.manager.incarnation = ballot
                self._member_unseen_since.clear()
        if mine and ballot == self.ballot:
            self.lease_until = max(self.lease_until,
                                   now + CONSENSUS_LEASE_S)
        if self._campaigning and ballot != self.ballot:
            # another regime is demonstrably live: stand down rather
            # than duel (my silence evidence just expired)
            self._campaigning = False
        self._inflight.pop(slot, None)
        if self.may_act():
            self._publish(Chosen(slot=slot, ballot=ballot, value=value,
                                 sender=self.name))
        self.last_chosen_at = now

    # -- the replicated state machine ----------------------------------------

    def _apply(self, slot: int, value: Tuple) -> None:
        kind = value[0]
        if kind == "reg":
            self.member_workers[value[1]] = value[2:]
            self._member_unseen_since.pop(value[1], None)
        elif kind == "exp":
            self.member_workers.pop(value[1], None)
            self.load_table.pop(value[1], None)
            self._member_unseen_since.pop(value[1], None)
        elif kind == "tick":
            self.load_table.update(dict(value[1]))
        # "lead" and "gap" entries carry no state-machine effect

    # -- campaigning and steering ---------------------------------------------

    def _start_campaign(self) -> None:
        floor = max(self.acceptor_log.promised, self.leader_ballot,
                    self.ballot)
        round_number = floor // N_REPLICAS + 1
        self.ballot = make_ballot(round_number, self.index, N_REPLICAS)
        self._campaigning = True
        self._campaign_started_at = self.env.now
        self._campaign_from = self.learner_log.applied_through + 1
        self._promises = {}
        self._inflight.clear()
        self.campaigns_started += 1
        self._publish(Prepare(slot=self._campaign_from,
                              ballot=self.ballot, sender=self.name))

    def _drive(self, slot: int, value: Any) -> None:
        self._inflight[slot] = value
        self._publish(AcceptRequest(slot=slot, ballot=self.ballot,
                                    value=value, sender=self.name))

    def _propose(self, value: Any) -> None:
        slot = self._next_slot
        self._next_slot += 1
        self._drive(slot, value)

    def _loads_snapshot(self) -> Tuple:
        return tuple(sorted(
            (name, round(info.queue_avg, 3))
            for name, info in self.manager.workers.items()))

    def _steer_loop(self):
        while True:
            yield self.env.timeout(TICK_S)
            now = self.env.now
            if self.may_act():
                # retransmit anything undecided, then renew the lease
                # with a tick entry snapshotting the load table
                for slot in sorted(self._inflight):
                    self._drive(slot, self._inflight[slot])
                self._propose(("tick", self._loads_snapshot()))
                continue
            if self._campaigning:
                if now - self._campaign_started_at \
                        > ELECTION_TIMEOUT_S:
                    self._start_campaign()   # next round, same owner
                else:
                    self._publish(Prepare(slot=self._campaign_from,
                                          ballot=self.ballot,
                                          sender=self.name))
                continue
            if self._inflight:
                # leader-elect: accepts outstanding, keep pushing
                for slot in sorted(self._inflight):
                    self._drive(slot, self._inflight[slot])
            lapse = now - self.last_chosen_at
            threshold = (CONSENSUS_LEASE_S + ELECTION_TIMEOUT_S
                         + ELECTION_STAGGER_S * self.index)
            if lapse > threshold:
                self._start_campaign()
            elif self.learner_log.first_unchosen() <= self._max_slot_seen:
                # I have gaps: ask the leader for Chosen rebroadcasts
                self._publish(SyncRequest(
                    first_unchosen=self.learner_log.first_unchosen(),
                    sender=self.name))

    # -- the manager's side: its facts into the log, its hints from it --------

    def submit(self, op: tuple) -> None:
        """A registration is a log entry (the live connection serves
        reports immediately, while the membership fact replicates
        underneath); departures are expiry entries; the silence sweep
        also expires committed members that never showed up.  The load
        table replicates on the lease tick, not the beacon."""
        kind = op[0]
        if kind == "join":
            registration = op[1]
            if registration.worker_name not in self.member_workers:
                self._propose(("reg", registration.worker_name,
                               registration.worker_type,
                               registration.node_name, registration.stub))
        elif kind != "load":
            self._expire(op[1])
            if kind == "expire":
                self._expire(self._unseen_members())

    def _expire(self, names: List[str]) -> None:
        """Departures become log entries, in name order so every run
        proposes them alike."""
        if not self.may_act():
            return
        for name in sorted(names):
            if name in self.member_workers:
                self._propose(("exp", name))

    def _unseen_members(self) -> List[str]:
        """Committed members with no live registration get one
        worker-timeout to re-register with this leader (they will, on
        its first beacon, if they survived); these have used it up."""
        now = self.env.now
        workers = self.manager.workers
        expired = []
        for name in self.member_workers:
            if name in workers:
                self._member_unseen_since.pop(name, None)
                continue
            since = self._member_unseen_since.setdefault(name, now)
            if now - since > self.manager.config.worker_timeout_s:
                expired.append(name)
        return expired

    def adverts(self) -> Dict[str, WorkerAdvert]:
        """Hints from committed membership joined with live reports.

        A freshly elected leader has the log's membership and load
        table before any worker re-registers, so its very first beacon
        carries useful hints (the "fast path").  Workers on nodes the
        leader cannot currently reach are withheld: routing to them
        would be a minority-view decision.
        """
        manager = self.manager
        adverts = manager.live_adverts()
        for name, (worker_type, node_name, stub) in \
                self.member_workers.items():
            if name not in adverts:
                adverts[name] = WorkerAdvert(
                    worker_name=name, worker_type=worker_type,
                    node_name=node_name, stub=stub,
                    queue_avg=self.load_table.get(name, 0.0),
                    last_report_at=self._took_over_at)
        partitions = manager.cluster.network.partitions
        here = manager.node.name
        return {name: adverts[name] for name in sorted(adverts)
                if (partitions is None or partitions.node_reachable(
                    here, adverts[name].node_name))
                and adverts[name].stub is not None
                and adverts[name].stub.alive}

    # -- crash and restart ------------------------------------------------------

    def rejoin(self) -> None:
        """Restart on my own node once the fork delay has passed
        (:meth:`SNSFabric.restart_peer`), acceptor state intact."""
        manager = self.manager
        if not manager.alive and manager.node.up:
            manager.start()

    def stop(self) -> None:
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None
        # volatile proposer state dies with the process; the acceptor
        # and learner logs survive (stable storage)
        self._campaigning = False
        self._promises = {}
        self._inflight.clear()
        self.lease_until = float("-inf")


class ReplicatedManagerGroup:
    """The three replicas' group, which the fabric keeps as
    ``fabric.consensus``.

    Owns group-level telemetry (regimes, lease handoffs, minority-stall
    seconds), keeps ``fabric.manager`` pointing at the current leader,
    and supervises replica crash-restart (a dead replica rejoins on its
    node after the fabric's fork delay, acceptor state intact)."""

    def __init__(self, fabric: Any) -> None:
        self.fabric = fabric
        #: the replica managers, in index order (set by :meth:`start`).
        self.replicas: List[Manager] = []
        #: leadership regimes in ballot order:
        #: ``{"ballot", "leader", "at", "stalled_s"}``.
        self.regimes: List[Dict[str, Any]] = []
        self.minority_stall_s = 0.0

    def start(self, replicas: List[Manager]) -> None:
        """Supervise ``replicas``, which the fabric has just started."""
        self.replicas = replicas
        self.fabric.cluster.env.process(self._supervise())

    # -- telemetry ------------------------------------------------------------

    def note_regime(self, ballot: int, at: float,
                    stalled_s: float) -> None:
        """First replica to learn a new leadership ballot reports it."""
        if self.regimes and self.regimes[-1]["ballot"] >= ballot:
            return
        owner = ballot_owner(ballot, N_REPLICAS)
        leader = self.replicas[owner]
        stalled = stalled_s if self.regimes else 0.0   # bootstrap gap
        self.regimes.append({
            "ballot": ballot,
            "leader": leader.name,
            "at": round(at, 3),
            "stalled_s": round(stalled, 3),
        })
        self.minority_stall_s += stalled
        self.fabric.manager = leader

    @property
    def leader(self) -> Optional[Manager]:
        """The replica currently holding the lease, if any."""
        for replica in self.replicas:
            if replica.replication.may_act():
                return replica
        return None

    def stats(self) -> Dict[str, Any]:
        """The chaos report's ``consensus`` section (plain data only)."""
        log_length = max((len(replica.replication.learner_log.chosen)
                          for replica in self.replicas), default=0)
        return {
            "replicas": len(self.replicas),
            "elections": len(self.regimes),
            "lease_handoffs": max(0, len(self.regimes) - 1),
            "max_ballot": max((r["ballot"] for r in self.regimes),
                              default=-1),
            "log_length": log_length,
            "campaigns": sum(replica.replication.campaigns_started
                             for replica in self.replicas),
            "minority_stall_s": round(self.minority_stall_s, 3),
            "regimes": [dict(regime) for regime in self.regimes],
        }

    def safety_violations(self) -> List[str]:
        """Cross-replica agreement: the Paxos safety invariant.

        Every slot chosen by more than one replica must carry the same
        value on all of them (ballots may differ only in that a slot is
        never chosen at two ballots with different values)."""
        problems: List[str] = []
        by_slot: Dict[int, Dict[str, Tuple[int, Any]]] = {}
        for replica in self.replicas:
            chosen = replica.replication.learner_log.chosen
            for slot, entry in chosen.items():
                by_slot.setdefault(slot, {})[replica.name] = entry
        for slot in sorted(by_slot):
            values = {repr(entry[1]) for entry
                      in by_slot[slot].values()}
            if len(values) > 1:
                problems.append(
                    f"slot {slot} chose {len(values)} distinct values: "
                    + "; ".join(
                        f"{name}={entry[1]!r}@b{entry[0]}"
                        for name, entry in sorted(by_slot[slot].items())))
        return problems

    # -- replica supervision --------------------------------------------------

    def _supervise(self):
        """Restart dead replicas on their own (up) node: the group is
        its own process peer, like the paper's mutual restarts."""
        env = self.fabric.cluster.env
        while True:
            yield env.timeout(1.0)
            for replica in self.replicas:
                if not replica.alive and replica.node.up:
                    self.fabric.restart_peer(replica.name,
                                             replica.replication.rejoin)
