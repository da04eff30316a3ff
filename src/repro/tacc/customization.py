"""The customization (user-profile) database: the one ACID component.

"The customization database, a traditional ACID database, maps a user
identification token (such as an IP address or cookie) to a list of
key-value pairs for each user of the service" (Section 2.3).  Everything
else in the architecture is BASE; profiles and billing are the explicit
exception ("if the service bills the user per session, the billing should
certainly be delegated to an ACID database").

TranSend used gdbm, HotBot a parallel Informix server; we implement a
small write-ahead-log key-value store with real transactional semantics:

* **Atomicity** — a transaction's operations reach the log between a
  ``begin`` and a ``commit`` record; recovery replays only committed
  transactions, so a crash mid-commit loses the whole transaction, never
  half of it.
* **Consistency** — values must be JSON-serializable; an optional
  validator hook can enforce per-service schemas.
* **Isolation** — single-writer: one open transaction at a time
  (serializable by construction, matching gdbm's whole-file lock).
* **Durability** — file-backed logs are flushed (and optionally fsynced)
  at commit; :meth:`ProfileStore.recover` rebuilds state from the log,
  ignoring any torn tail.

The paper notes "user preference reads are much more frequent than
writes, and the reads are absorbed by a write-through cache in the front
end" — :class:`WriteThroughCache` is that cache.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, IO, List, Optional, Tuple

_TOMBSTONE = "__tombstone__"


class TransactionError(Exception):
    """Illegal transaction usage (nesting, reuse after commit...)."""


class StoreCorrupt(Exception):
    """The log contains a malformed record before the final line."""


class Transaction:
    """A buffered, atomic batch of profile updates."""

    def __init__(self, store: "ProfileStore", tx_id: int) -> None:
        self._store = store
        self.tx_id = tx_id
        self._writes: List[Tuple[str, str, Any]] = []
        self._overlay: Dict[Tuple[str, str], Any] = {}
        self.state = "open"

    def _require_open(self) -> None:
        if self.state != "open":
            raise TransactionError(f"transaction is {self.state}")

    def set(self, user_id: str, key: str, value: Any) -> None:
        self._require_open()
        self._store._validate(user_id, key, value)
        self._writes.append((user_id, key, value))
        self._overlay[(user_id, key)] = value

    def delete(self, user_id: str, key: str) -> None:
        self._require_open()
        self._writes.append((user_id, key, _TOMBSTONE))
        self._overlay[(user_id, key)] = _TOMBSTONE

    def get(self, user_id: str, key: str, default: Any = None) -> Any:
        """Read-your-writes within the transaction."""
        self._require_open()
        if (user_id, key) in self._overlay:
            value = self._overlay[(user_id, key)]
            return default if value is _TOMBSTONE else value
        return self._store.get_value(user_id, key, default)

    def commit(self) -> None:
        self._require_open()
        self._store._commit(self)
        self.state = "committed"

    def abort(self) -> None:
        self._require_open()
        self._store._abort(self)
        self.state = "aborted"

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state != "open":
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class ProfileStore:
    """WAL-backed key-value store of per-user profiles."""

    def __init__(
        self,
        log_path: Optional[str] = None,
        sync: bool = False,
        validator: Optional[Callable[[str, str, Any], None]] = None,
    ) -> None:
        self.log_path = log_path
        self.sync = sync
        self._validator = validator
        self._data: Dict[str, Dict[str, Any]] = {}
        self._next_tx = 1
        self._open_tx: Optional[Transaction] = None
        self._log: Optional[IO[str]] = None
        self.commits = 0
        self.aborts = 0
        #: bumped by every :meth:`recover`; caches compare it to drop
        #: state that predates a recovery (the recovered store may have
        #: lost a torn tail the cache already absorbed).
        self.generation = 0
        if log_path is not None:
            self.recover()
            self._log = open(log_path, "a", encoding="utf-8")

    # -- reads ---------------------------------------------------------------

    def get(self, user_id: str) -> Dict[str, Any]:
        """A *copy* of the user's whole profile (possibly empty)."""
        return dict(self._data.get(user_id, {}))

    def get_value(self, user_id: str, key: str, default: Any = None) -> Any:
        return self._data.get(user_id, {}).get(key, default)

    def users(self) -> List[str]:
        return sorted(self._data)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._data

    # -- writes ----------------------------------------------------------------

    def begin(self) -> Transaction:
        if self._open_tx is not None:
            raise TransactionError("a transaction is already open "
                                   "(single-writer store)")
        tx = Transaction(self, self._next_tx)
        self._next_tx += 1
        self._open_tx = tx
        return tx

    def set(self, user_id: str, key: str, value: Any) -> None:
        """Auto-commit single write."""
        with self.begin() as tx:
            tx.set(user_id, key, value)

    def delete(self, user_id: str, key: str) -> None:
        """Auto-commit single delete."""
        with self.begin() as tx:
            tx.delete(user_id, key)

    def _validate(self, user_id: str, key: str, value: Any) -> None:
        try:
            json.dumps(value)
        except (TypeError, ValueError) as error:
            raise TransactionError(
                f"value for {user_id}/{key} is not JSON-serializable"
            ) from error
        if self._validator is not None:
            self._validator(user_id, key, value)

    def _commit(self, tx: Transaction) -> None:
        if tx is not self._open_tx:
            raise TransactionError("commit of a non-current transaction")
        self._append({"op": "begin", "tx": tx.tx_id})
        for user_id, key, value in tx._writes:
            if value is _TOMBSTONE:
                self._append({"op": "del", "tx": tx.tx_id,
                              "user": user_id, "key": key})
            else:
                self._append({"op": "set", "tx": tx.tx_id, "user": user_id,
                              "key": key, "value": value})
        self._append({"op": "commit", "tx": tx.tx_id}, flush=True)
        self._apply(tx._writes)
        self._open_tx = None
        self.commits += 1

    def _abort(self, tx: Transaction) -> None:
        if tx is not self._open_tx:
            raise TransactionError("abort of a non-current transaction")
        self._open_tx = None
        self.aborts += 1

    def _apply(self, writes: List[Tuple[str, str, Any]]) -> None:
        for user_id, key, value in writes:
            profile = self._data.setdefault(user_id, {})
            if value is _TOMBSTONE or value == _TOMBSTONE:
                profile.pop(key, None)
                if not profile:
                    self._data.pop(user_id, None)
            else:
                profile[key] = value

    # -- the log -------------------------------------------------------------------

    def _append(self, record: Dict[str, Any], flush: bool = False) -> None:
        if self._log is None:
            return
        self._log.write(json.dumps(record) + "\n")
        if flush:
            self._log.flush()
            if self.sync:
                os.fsync(self._log.fileno())

    def recover(self) -> int:
        """Rebuild in-memory state from the log; return #committed txns.

        Only operations bracketed by matching ``begin``/``commit`` records
        are applied; a torn final line (crash mid-write) is tolerated, but
        corruption earlier in the log raises :class:`StoreCorrupt`.

        A torn tail is also sealed on disk — truncated off, or given
        its missing newline when the crash landed exactly on a record
        boundary — so records appended after recovery cannot splice
        onto torn bytes and corrupt the *next* recovery.
        """
        self._data = {}
        self.generation += 1
        if self.log_path is None or not os.path.exists(self.log_path):
            return 0
        with open(self.log_path, "r", encoding="utf-8") as log:
            lines = log.readlines()
        committed = 0
        pending: Dict[int, List[Tuple[str, str, Any]]] = {}
        highest_tx = 0
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
            except ValueError:
                if index == len(lines) - 1:
                    # torn tail from a crash: drop it and truncate it
                    # off disk
                    good = sum(len(prior.encode("utf-8"))
                               for prior in lines[:index])
                    with open(self.log_path, "r+b") as raw:
                        raw.truncate(good)
                    break
                raise StoreCorrupt(f"bad record at line {index + 1}")
            op = record.get("op")
            tx_id = record.get("tx", 0)
            highest_tx = max(highest_tx, tx_id)
            if op == "begin":
                pending[tx_id] = []
            elif op == "set" and tx_id in pending:
                pending[tx_id].append(
                    (record["user"], record["key"], record["value"]))
            elif op == "del" and tx_id in pending:
                pending[tx_id].append(
                    (record["user"], record["key"], _TOMBSTONE))
            elif op == "commit" and tx_id in pending:
                self._apply(pending.pop(tx_id))
                committed += 1
        else:
            if lines and not lines[-1].endswith("\n"):
                # crash landed exactly on a record boundary: seal the
                # missing newline so the next append starts clean
                with open(self.log_path, "a", encoding="utf-8") as raw:
                    raw.write("\n")
        self._next_tx = highest_tx + 1
        return committed

    def checkpoint(self) -> None:
        """Compact the log to a snapshot of current state."""
        if self.log_path is None:
            return
        if self._open_tx is not None:
            raise TransactionError("cannot checkpoint with an open "
                                   "transaction")
        if self._log is not None:
            self._log.close()
        temp_path = self.log_path + ".compact"
        with open(temp_path, "w", encoding="utf-8") as log:
            tx_id = self._next_tx
            self._next_tx += 1
            log.write(json.dumps({"op": "begin", "tx": tx_id}) + "\n")
            for user_id in sorted(self._data):
                for key, value in sorted(self._data[user_id].items()):
                    log.write(json.dumps(
                        {"op": "set", "tx": tx_id, "user": user_id,
                         "key": key, "value": value}) + "\n")
            log.write(json.dumps({"op": "commit", "tx": tx_id}) + "\n")
            log.flush()
            if self.sync:
                os.fsync(log.fileno())
        os.replace(temp_path, self.log_path)
        self._log = open(self.log_path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def stats(self) -> Dict[str, int]:
        return {"commits": self.commits, "aborts": self.aborts}


def open_profile_store(cluster: Any, backend: Optional[str],
                       log_path: Optional[str] = None,
                       validator: Optional[Callable[[str, str, Any],
                                                    None]] = None
                       ) -> Tuple[Any, Any]:
    """Build the profile storage a deployment asked for; returns
    ``(store, bricks)``.  ``None`` is no store at all, ``"single"`` one
    :class:`ProfileStore`, ``"dstore"`` a
    :class:`~repro.dstore.ReplicatedProfileStore` over a freshly booted
    :class:`~repro.dstore.BrickCluster` on ``cluster`` — the only case
    with ``bricks``, which chaos and supervision reach through the
    fabric."""
    if backend is None:
        return None, None
    if backend == "single":
        return ProfileStore(log_path=log_path, validator=validator), None
    if backend != "dstore":
        raise ValueError(f"unknown profile backend {backend!r}")
    if log_path is not None:
        raise ValueError("the dstore backend has no WAL; a profile log "
                         "path only applies to the 'single' backend")
    # imported here: repro.dstore builds on this module
    from repro.dstore import BrickCluster, ReplicatedProfileStore
    bricks = BrickCluster(cluster).boot()
    return ReplicatedProfileStore(bricks, validator=validator), bricks


class WriteThroughCache:
    """Front-end read cache over a :class:`ProfileStore`.

    Reads hit the cache; writes go through to the store *and* update the
    cache, so the cache is always coherent with respect to writes made
    through it (the production layout: one FE, one cache, one store).
    Deletes are write-through too, and the cache watches the store's
    ``generation`` stamp: a recovery may have rolled the store back past
    state this cache already absorbed (a torn-tail transaction), so all
    cached reads from before a recovery are dropped wholesale.
    """

    def __init__(self, store: ProfileStore) -> None:
        self.store = store
        self._cache: Dict[str, Dict[str, Any]] = {}
        self._generation = getattr(store, "generation", 0)
        self.hits = 0
        self.misses = 0
        self.generation_flushes = 0

    def _check_generation(self) -> None:
        generation = getattr(self.store, "generation", 0)
        if generation != self._generation:
            self._cache.clear()
            self._generation = generation
            self.generation_flushes += 1

    def get(self, user_id: str) -> Dict[str, Any]:
        self._check_generation()
        if user_id in self._cache:
            self.hits += 1
        else:
            self.misses += 1
            self._cache[user_id] = self.store.get(user_id)
        return dict(self._cache[user_id])

    def set(self, user_id: str, key: str, value: Any) -> None:
        self._check_generation()
        self.store.set(user_id, key, value)
        profile = self._cache.setdefault(user_id, {})
        profile[key] = value

    def delete(self, user_id: str, key: str) -> None:
        """Write-through delete: the cached profile must never keep
        serving a key the store has tombstoned."""
        self._check_generation()
        self.store.delete(user_id, key)
        profile = self._cache.get(user_id)
        if profile is not None:
            profile.pop(key, None)

    def invalidate(self, user_id: Optional[str] = None) -> None:
        if user_id is None:
            self._cache.clear()
        else:
            self._cache.pop(user_id, None)
