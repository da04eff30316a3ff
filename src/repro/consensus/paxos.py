"""Single-decree Paxos: proposer, acceptor, and learner state machines.

These are *pure* state machines — no clocks, no network, no randomness.
Each method consumes one message and returns what (if anything) should
be sent in response; the caller owns delivery, retransmission, and
timeouts.  That split is what makes the safety property testable by
brute force: a test can deliver, drop, duplicate, and reorder the
returned messages in any schedule and assert that two different values
are never chosen for the same decree.

Ballots are integers encoding ``(round, owner)`` as
``round * n_replicas + owner_index``, which gives every replica an
infinite, disjoint, totally ordered ballot supply — and, because the
encoding is monotonic in time for any one leader succession, the
current ballot doubles as the manager *incarnation* number the SNS
beacons already carry.

The safety core is the classic two rules (Lamport, "Paxos Made
Simple"):

* an acceptor promises never to accept anything below the highest
  ballot it has seen a ``Prepare`` for, and
* a proposer that reaches a promise quorum must adopt the
  highest-ballot value any quorum member already accepted, proposing
  its own value only when the quorum is virgin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

__all__ = [
    "Accepted",
    "AcceptRequest",
    "Acceptor",
    "Chosen",
    "Learner",
    "Prepare",
    "Promise",
    "Proposer",
    "SyncRequest",
    "ballot_owner",
    "make_ballot",
]


def make_ballot(round_number: int, owner_index: int,
                n_replicas: int) -> int:
    """Encode a ballot: totally ordered, owner-disjoint."""
    if not 0 <= owner_index < n_replicas:
        raise ValueError("owner index out of range")
    if round_number < 0:
        raise ValueError("round must be non-negative")
    return round_number * n_replicas + owner_index


def ballot_owner(ballot: int, n_replicas: int) -> int:
    """The replica index that owns ``ballot``."""
    return ballot % n_replicas


# -- wire messages -----------------------------------------------------------
#
# ``slot`` scopes a message to one decree of the multi-Paxos log; the
# single-decree machines below never look at it.  ``sender`` is the
# replica name, used by learners to count distinct acceptors.

@dataclass(frozen=True)
class Prepare:
    """Phase-1a: a candidate leader claims ``ballot`` for every slot
    from ``slot`` upward (the multi-Paxos bulk prepare)."""

    slot: int
    ballot: int
    sender: str


@dataclass(frozen=True)
class Promise:
    """Phase-1b: the acceptor's promise, carrying everything it already
    accepted at or above the prepared slot."""

    slot: int
    ballot: int
    sender: str
    #: the candidate the promise answers (others ignore the message).
    to: str
    #: ``{slot: (accepted_ballot, accepted_value)}`` for slots >= slot.
    accepted: Dict[int, Tuple[int, Any]] = field(default_factory=dict)


@dataclass(frozen=True)
class AcceptRequest:
    """Phase-2a: the leader asks acceptors to accept ``value``."""

    slot: int
    ballot: int
    value: Any
    sender: str


@dataclass(frozen=True)
class Accepted:
    """Phase-2b: broadcast so every learner counts the quorum."""

    slot: int
    ballot: int
    value: Any
    sender: str


@dataclass(frozen=True)
class Chosen:
    """Leader's post-quorum announcement: lets replicas that missed the
    ``Accepted`` quorum catch up without re-running the protocol.  Not
    needed for safety — a learner believes it only because a chosen
    value can never change."""

    slot: int
    ballot: int
    value: Any
    sender: str


@dataclass(frozen=True)
class SyncRequest:
    """A lagging replica advertises its first unchosen slot; the leader
    answers with :class:`Chosen` rebroadcasts from there."""

    first_unchosen: int
    sender: str


# -- the three roles ---------------------------------------------------------

class Acceptor:
    """One decree's acceptor: the promise/accept safety rules."""

    def __init__(self) -> None:
        self.promised: int = -1
        self.accepted_ballot: Optional[int] = None
        self.accepted_value: Any = None

    def prepare(self, ballot: int) -> bool:
        """Phase 1: promise ``ballot`` unless already past it.  Returns
        whether the promise was made; the caller reads
        ``accepted_ballot``/``accepted_value`` to build the Promise."""
        if ballot < self.promised:
            return False
        self.promised = ballot
        return True

    def accept(self, ballot: int, value: Any) -> bool:
        """Phase 2: accept unless promised to someone higher."""
        if ballot < self.promised:
            return False
        self.promised = ballot
        self.accepted_ballot = ballot
        self.accepted_value = value
        return True


class Proposer:
    """One decree's proposer attempt at a fixed ballot."""

    def __init__(self, ballot: int, value: Any, quorum: int) -> None:
        self.ballot = ballot
        self.value = value
        self.quorum = quorum
        self._promised_by: Set[str] = set()
        self._best_accepted: Optional[Tuple[int, Any]] = None
        self.ready = False

    def on_promise(self, sender: str,
                   accepted_ballot: Optional[int],
                   accepted_value: Any) -> bool:
        """Fold in one promise; True once the quorum is first reached.

        On quorum, ``value`` holds what MUST be proposed: the value of
        the highest-ballot acceptance any quorum member reported, or the
        proposer's own candidate if none reported any.
        """
        if self.ready:
            return False
        self._promised_by.add(sender)
        if accepted_ballot is not None:
            best = self._best_accepted
            if best is None or accepted_ballot > best[0]:
                self._best_accepted = (accepted_ballot, accepted_value)
        if len(self._promised_by) < self.quorum:
            return False
        if self._best_accepted is not None:
            self.value = self._best_accepted[1]
        self.ready = True
        return True


class Learner:
    """One decree's learner: a value is chosen once a quorum of
    distinct acceptors accepted it at the same ballot."""

    def __init__(self, quorum: int) -> None:
        self.quorum = quorum
        self._accepts: Dict[int, Set[str]] = {}
        self.chosen_ballot: Optional[int] = None
        self.chosen_value: Any = None

    @property
    def decided(self) -> bool:
        return self.chosen_ballot is not None

    def on_accepted(self, sender: str, ballot: int, value: Any) -> bool:
        """Count one acceptance; True when this message decides it."""
        if self.decided:
            return False
        voters = self._accepts.setdefault(ballot, set())
        voters.add(sender)
        if len(voters) < self.quorum:
            return False
        self.chosen_ballot = ballot
        self.chosen_value = value
        return True

    def force_chosen(self, ballot: int, value: Any) -> bool:
        """Adopt a :class:`Chosen` announcement (catch-up path)."""
        if self.decided:
            return False
        self.chosen_ballot = ballot
        self.chosen_value = value
        return True
