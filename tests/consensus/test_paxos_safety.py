"""Paxos safety by brute force.

The single-decree machines in :mod:`repro.consensus.paxos` are pure —
no clocks, no network — so a test can *be* the network: deliver, drop,
duplicate, and reorder every message under a seeded RNG and assert the
one property consensus exists for: **no two different values are ever
chosen for the same decree**, under any schedule.  The multi-Paxos
composition gets the same treatment across a window of log slots, plus
the in-order-application contract of :class:`LearnerLog`.

The liveness side (a partition heals, the log converges, exactly one
leader survives) needs real clocks, so it runs on the sim fabric.
"""

import random

import pytest

from repro.consensus.log import AcceptorLog, LearnerLog
from repro.consensus.paxos import (
    Acceptor,
    Learner,
    Proposer,
    ballot_owner,
    make_ballot,
)

N = 3
QUORUM = 2

LOSS = 0.15
DUPLICATE = 0.15


def _chaotic_single_decree(seed: int):
    """Competing proposers for one decree through a hostile network.

    Returns the two independent learners so the caller can check
    agreement.  Messages live in a soup; each step picks a random one,
    maybe drops it, maybe re-enqueues a duplicate, then delivers.
    """
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(N)]
    acceptors = {name: Acceptor() for name in names}
    learners = [Learner(QUORUM), Learner(QUORUM)]
    proposers = {}
    soup = []

    for attempt in range(4):
        ballot = make_ballot(attempt, rng.randrange(N), N)
        if ballot in proposers:
            continue
        proposers[ballot] = Proposer(ballot, f"value-{ballot}", QUORUM)
        for name in names:
            soup.append(("prepare", name, ballot))

    for _ in range(4000):
        if not soup:
            break
        kind, dst, *payload = soup.pop(rng.randrange(len(soup)))
        roll = rng.random()
        if roll < LOSS:
            continue
        if roll < LOSS + DUPLICATE:
            soup.append((kind, dst, *payload))
        if kind == "prepare":
            (ballot,) = payload
            acceptor = acceptors[dst]
            if acceptor.prepare(ballot):
                soup.append(("promise", ballot, dst,
                             acceptor.accepted_ballot,
                             acceptor.accepted_value))
        elif kind == "promise":
            ballot, sender, accepted_ballot, accepted_value = \
                (dst, *payload)
            proposer = proposers[ballot]
            if proposer.on_promise(sender, accepted_ballot,
                                   accepted_value):
                for name in names:
                    soup.append(("accept", name, ballot,
                                 proposer.value))
        elif kind == "accept":
            ballot, value = payload
            if acceptors[dst].accept(ballot, value):
                for index in range(len(learners)):
                    soup.append(("accepted", index, dst, ballot,
                                 value))
        elif kind == "accepted":
            sender, ballot, value = payload
            learners[dst].on_accepted(sender, ballot, value)
    return learners


def test_single_decree_safety_under_loss_dup_reorder():
    """Across many adversarial schedules, decided learners always agree
    — and enough schedules decide for the test to have teeth."""
    decided_runs = 0
    for seed in range(120):
        learners = _chaotic_single_decree(seed)
        values = {repr(learner.chosen_value) for learner in learners
                  if learner.decided}
        assert len(values) <= 1, \
            f"seed {seed} chose two values: {values}"
        if values:
            decided_runs += 1
    assert decided_runs >= 60  # the property is not vacuously true


def test_proposer_must_adopt_highest_accepted_value():
    """The safety core: a quorum member already accepted at ballot 4,
    so the ballot-7 proposer must surrender its own candidate."""
    proposer = Proposer(7, "mine", QUORUM)
    assert not proposer.on_promise("a0", 4, "theirs")
    assert proposer.on_promise("a1", None, None)
    assert proposer.value == "theirs"


def test_acceptor_promise_blocks_lower_ballots():
    acceptor = Acceptor()
    assert acceptor.prepare(5)
    assert not acceptor.prepare(3)
    assert not acceptor.accept(4, "late")
    assert acceptor.accept(5, "ok")
    # a duplicate of the old prepare changes nothing
    assert not acceptor.prepare(3)
    assert acceptor.accepted_value == "ok"


def test_ballot_encoding_round_trips_and_is_owner_disjoint():
    seen = set()
    for round_number in range(4):
        for owner in range(N):
            ballot = make_ballot(round_number, owner, N)
            assert ballot_owner(ballot, N) == owner
            assert ballot // N == round_number
            seen.add(ballot)
    assert len(seen) == 12  # totally ordered, no collisions
    with pytest.raises(ValueError):
        make_ballot(1, N, N)


def _chaotic_log_battle(seed: int):
    """Two leaders fight over slots 0..4 of the replicated log through
    a lossy, duplicating, reordering network.  Phase 1 (bulk prepare)
    is delivered reliably — its loss only affects liveness — while the
    phase-2 stream gets the full soup treatment."""
    rng = random.Random(seed)
    names = ["r0", "r1", "r2"]
    acceptors = {name: AcceptorLog() for name in names}
    applied = {name: [] for name in names}
    learners = {
        name: LearnerLog(
            QUORUM,
            lambda slot, value, name=name: applied[name].append(
                (slot, value)))
        for name in names
    }
    soup = []
    for index, leader in enumerate(["r0", "r1"]):
        ballot = make_ballot(1 + rng.randrange(3), index, N)
        for name in names:
            acceptors[name].on_prepare(ballot, 0)
        for slot in range(5):
            for name in names:
                soup.append(("accept", name, slot, ballot,
                             (leader, slot)))
    for _ in range(6000):
        if not soup:
            break
        kind, dst, *payload = soup.pop(rng.randrange(len(soup)))
        roll = rng.random()
        if roll < LOSS:
            continue
        if roll < LOSS + DUPLICATE:
            soup.append((kind, dst, *payload))
        if kind == "accept":
            slot, ballot, value = payload
            if acceptors[dst].on_accept(slot, ballot, value):
                for name in names:
                    soup.append(("accepted", name, slot, dst, ballot,
                                 value))
        elif kind == "accepted":
            slot, sender, ballot, value = payload
            learners[dst].on_accepted(slot, sender, ballot, value)
    return learners, applied


def test_multi_paxos_log_safety_and_in_order_application():
    chose_something = 0
    for seed in range(60):
        learners, applied = _chaotic_log_battle(seed)
        # safety: any slot chosen by several replicas has ONE value
        for slot in range(5):
            values = {repr(log.chosen[slot][1])
                      for log in learners.values()
                      if log.is_chosen(slot)}
            assert len(values) <= 1, \
                f"seed {seed} slot {slot} chose {values}"
            if values:
                chose_something += 1
        # application is a contiguous prefix, strictly in slot order
        for name, entries in applied.items():
            slots = [slot for slot, _ in entries]
            assert slots == list(range(len(slots)))
            log = learners[name]
            assert log.applied_through == len(slots) - 1
            # applied values match what the log chose
            for slot, value in entries:
                assert repr(log.chosen[slot][1]) == repr(value)
    assert chose_something >= 100


def test_acceptor_log_shared_promise_covers_fresh_slots():
    log = AcceptorLog()
    promised, accepted = log.on_prepare(6, 0)
    assert promised and accepted == {}
    # a fresh slot created after the bulk prepare inherits the promise
    assert not log.on_accept(3, 4, "stale-leader")
    assert log.on_accept(3, 6, "current-leader")
    # the promise payload reports accepted slots at or above from_slot
    promised, accepted = log.on_prepare(7, 0)
    assert promised
    assert accepted == {3: (6, "current-leader")}


def test_learner_log_sits_on_gaps_until_prefix_completes():
    applied = []
    log = LearnerLog(QUORUM, lambda slot, value: applied.append(slot))
    assert log.on_chosen(2, 5, "c") == []
    assert log.first_unchosen() == 0
    assert log.on_chosen(0, 5, "a") == [0]
    assert log.first_unchosen() == 1
    # filling the gap releases the whole prefix in order
    assert log.on_chosen(1, 5, "b") == [1, 2]
    assert applied == [0, 1, 2]
    assert log.first_unchosen() == 3


def test_liveness_after_partition_heals():
    """The sim-fabric smoke: isolate the leader's node, a new leader
    must take over; heal, and the log must converge with no safety
    violation and exactly one active leader."""
    from tests.core.conftest import fast_config, make_fabric

    fabric = make_fabric(
        n_nodes=10, config=fast_config(manager_backend="consensus"))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=3.0)
    group = fabric.consensus
    first_leader = group.leader
    assert first_leader is not None and first_leader.replication.may_act()

    partitions = fabric.cluster.install_partitions()
    partitions.split({first_leader.node.name: "isolated"},
                     duration_s=12.0)
    fabric.cluster.run(until=10.0)
    second_leader = group.leader
    assert second_leader is not None
    assert second_leader is not first_leader
    assert second_leader.replication.may_act()
    assert not first_leader.replication.may_act()

    fabric.cluster.run(until=25.0)  # healed at t=15
    assert group.safety_violations() == []
    active = [replica for replica in group.replicas
              if replica.replication.may_act()]
    assert len(active) == 1
    # every live replica caught up to the same applied prefix
    lengths = {replica.replication.learner_log.applied_through
               for replica in group.replicas if replica.alive}
    assert len(lengths) == 1
