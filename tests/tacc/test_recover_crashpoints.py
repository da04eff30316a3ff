"""Crash-point property test for :meth:`ProfileStore.recover`.

Simulate a crash at *every byte offset* of the WAL: the recovered
state must always equal the state after the longest prefix of fully
committed transactions — never a half-applied transaction, and never
a :class:`StoreCorrupt` for a torn tail.  Only genuine corruption in
the *middle* of the log is allowed to raise.
"""

import os

import pytest

from repro.tacc.customization import ProfileStore, StoreCorrupt

# each entry is one transaction: a list of writes, where value=None
# means delete.  Mixed enough to expose half-application: multi-write
# transactions, overwrites, tombstones, multiple users.
SCRIPT = [
    [("alice", "quality", 60), ("alice", "scale", 0.5)],
    [("bob", "quality", 30)],
    [("alice", "quality", 75), ("carol", "lang", "en")],
    [("alice", "scale", None)],
    [("bob", "quality", 45), ("bob", "colors", 256),
     ("dave", "quality", 5)],
]


def snapshot(store):
    return {user: store.get(user) for user in store.users()}


def build_log(path):
    """Write SCRIPT through a real store, recording after each commit
    the byte offset where its commit record ends and the visible
    state at that point."""
    store = ProfileStore(log_path=path)
    snapshots = [{}]
    commit_ends = []
    for writes in SCRIPT:
        with store.begin() as tx:
            for user, key, value in writes:
                if value is None:
                    tx.delete(user, key)
                else:
                    tx.set(user, key, value)
        # the commit record was flushed; its body ends just before
        # the trailing newline
        commit_ends.append(os.path.getsize(path) - 1)
        snapshots.append(snapshot(store))
    store.close()
    return commit_ends, snapshots


def test_recover_equals_longest_committed_prefix_at_every_offset(
        tmp_path):
    wal = tmp_path / "profiles.wal"
    commit_ends, snapshots = build_log(str(wal))
    raw = wal.read_bytes()

    torn = tmp_path / "torn.wal"
    for offset in range(len(raw) + 1):
        torn.write_bytes(raw[:offset])
        # recover() runs from __init__; a torn tail must never raise
        recovered = ProfileStore(log_path=str(torn))
        expected_txns = sum(1 for end in commit_ends if end <= offset)
        expected = snapshots[expected_txns]
        assert snapshot(recovered) == expected, \
            f"state mismatch at truncation offset {offset}"
        # writes after recovery must survive the *next* recovery too:
        # the sealed log may not let new records splice onto torn bytes
        recovered.set("erin", "offset", offset)
        recovered.close()
        reopened = ProfileStore(log_path=str(torn))
        assert snapshot(reopened) == {**expected,
                                      "erin": {"offset": offset}}, \
            f"post-recovery write lost at truncation offset {offset}"
        reopened.close()


def test_recover_reports_committed_count(tmp_path):
    wal = tmp_path / "profiles.wal"
    commit_ends, _ = build_log(str(wal))
    raw = wal.read_bytes()
    torn = tmp_path / "torn.wal"
    # cut one byte into each commit record's newline boundary: the
    # transaction before the cut is in, the one being cut is out
    for n_committed, end in enumerate(commit_ends, start=1):
        torn.write_bytes(raw[:end])
        store = ProfileStore()  # no log; call recover() explicitly
        store.backend.log_path = str(torn)
        assert store.recover() == n_committed
        torn.write_bytes(raw[:end - 1])
        assert store.recover() == n_committed - 1


def test_multi_write_transaction_never_half_applied(tmp_path):
    """Cut inside the last transaction's body: its earlier set
    records are bytewise intact, but without the commit record none
    of them may surface."""
    wal = tmp_path / "profiles.wal"
    commit_ends, snapshots = build_log(str(wal))
    raw = wal.read_bytes()
    torn = tmp_path / "torn.wal"
    start_of_last = commit_ends[-2] + 1
    for offset in range(start_of_last, commit_ends[-1]):
        torn.write_bytes(raw[:offset])
        recovered = ProfileStore(log_path=str(torn))
        state = snapshot(recovered)
        assert state == snapshots[-2]
        assert state["bob"]["quality"] == 30  # not the in-flight 45
        assert "colors" not in state["bob"]
        assert "dave" not in state
        recovered.close()


def test_mid_log_corruption_still_raises(tmp_path):
    """The torn-tail tolerance must not swallow real corruption:
    garbage anywhere but the final line is a hard error."""
    wal = tmp_path / "profiles.wal"
    build_log(str(wal))
    lines = wal.read_bytes().splitlines(keepends=True)
    lines[2] = b"@@corrupt@@\n"
    wal.write_bytes(b"".join(lines))
    with pytest.raises(StoreCorrupt):
        ProfileStore(log_path=str(wal))


def test_recovery_survives_reopen_and_continue(tmp_path):
    """After a torn-tail recovery the store keeps working: new
    transactions append and a second recovery sees them."""
    wal = tmp_path / "profiles.wal"
    commit_ends, snapshots = build_log(str(wal))
    raw = wal.read_bytes()
    wal.write_bytes(raw[: commit_ends[-1] - 3])  # tear the last commit
    store = ProfileStore(log_path=str(wal))
    assert snapshot(store) == snapshots[-2]
    generation = store.generation
    store.set("erin", "quality", 90)
    store.close()
    reopened = ProfileStore(log_path=str(wal))
    assert reopened.get_value("erin", "quality") == 90
    assert snapshot(reopened) == {**snapshots[-2],
                                  "erin": {"quality": 90}}
    assert reopened.generation >= 1 and generation >= 1
    reopened.close()
