"""The customization (user-profile) database: the one ACID component.

"The customization database, a traditional ACID database, maps a user
identification token (such as an IP address or cookie) to a list of
key-value pairs for each user of the service" (Section 2.3).  Everything
else in the architecture is BASE; profiles and billing are the explicit
exception ("if the service bills the user per session, the billing should
certainly be delegated to an ACID database").

TranSend used gdbm, HotBot a parallel Informix server.  Here one front,
:class:`ProfileStore`, sits over a backend answering ``commit(writes)``,
``read(user)``, ``users()`` and ``recover()``: the ``single``
:class:`WriteAheadLog`, a small write-ahead-log key-value store with
real transactional semantics, or the ``dstore`` :mod:`repro.dstore.store`.

* **Atomicity** — a transaction's operations reach the log between a
  ``begin`` and a ``commit`` record; recovery replays only committed
  transactions, so a crash mid-commit loses the whole transaction, never
  half of it.
* **Consistency** — values must be JSON-serializable (and not the
  deletion marker); an optional validator hook can enforce per-service
  schemas.
* **Isolation** — single-writer: one open transaction at a time
  (serializable by construction, matching gdbm's whole-file lock).
* **Durability** — file-backed logs are flushed (and optionally fsynced)
  at commit; :meth:`ProfileStore.recover` rebuilds state from the log,
  ignoring any torn tail; a closed store refuses new transactions.

The paper notes "user preference reads are much more frequent than
writes, and the reads are absorbed by a write-through cache in the front
end" — :class:`WriteThroughCache` is that cache.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, IO, List, Optional, Tuple

#: the deletion marker (a reserved value: a transaction refuses it)
TOMBSTONE = "__tombstone__"

#: ``(user_id, key, value)``; value TOMBSTONE is a delete
Write = Tuple[str, str, Any]
Validator = Callable[[str, str, Any], None]


class TransactionError(Exception):
    """Illegal transaction usage (nesting, reuse after commit...)."""


class StoreCorrupt(Exception):
    """The log contains a malformed record before the final line."""


class Transaction:
    """A buffered, atomic batch of profile updates."""

    def __init__(self, store: "ProfileStore") -> None:
        self._store = store
        self._writes: List[Write] = []
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
        self._writes.append((user_id, key, TOMBSTONE))
        self._overlay[(user_id, key)] = TOMBSTONE

    def get(self, user_id: str, key: str, default: Any = None) -> Any:
        """Read-your-writes within the transaction."""
        self._require_open()
        if (user_id, key) in self._overlay:
            value = self._overlay[(user_id, key)]
            return default if value == TOMBSTONE else value
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
    """Per-user profiles: the front over a ``single`` or ``dstore``
    backend (a :class:`WriteAheadLog` on ``log_path`` unless one is
    given).  Opening a store recovers it."""

    def __init__(self, log_path: Optional[str] = None, sync: bool = False,
                 validator: Optional[Validator] = None,
                 backend: Optional[Any] = None) -> None:
        self.backend = backend or WriteAheadLog(log_path, sync)
        self._validator = validator
        self._open_tx: Optional[Transaction] = None
        self.closed = False
        self.commits = self.aborts = 0
        #: bumped by every :meth:`recover`; caches compare it to drop
        #: state that predates a recovery (the recovered store may have
        #: lost a torn tail the cache already absorbed).
        self.generation = 0
        self.recover()

    # -- reads ---------------------------------------------------------------

    def get(self, user_id: str) -> Dict[str, Any]:
        """A *copy* of the user's whole profile (possibly empty)."""
        return dict(self.backend.read(user_id))

    def get_value(self, user_id: str, key: str, default: Any = None) -> Any:
        return self.backend.read(user_id).get(key, default)

    def users(self) -> List[str]:
        return self.backend.users()

    def __contains__(self, user_id: str) -> bool:
        return user_id in self.backend.users()

    # -- writes ----------------------------------------------------------------

    def begin(self) -> Transaction:
        if self.closed:
            raise TransactionError("the store is closed")
        if self._open_tx is not None:
            raise TransactionError("a transaction is already open "
                                   "(single-writer store)")
        self._open_tx = Transaction(self)
        return self._open_tx

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
        if value == TOMBSTONE:
            raise TransactionError(f"value for {user_id}/{key} is the "
                                   "reserved deletion marker")
        if self._validator is not None:
            self._validator(user_id, key, value)

    def _commit(self, tx: Transaction) -> None:
        if tx is not self._open_tx:
            raise TransactionError("commit of a non-current transaction")
        try:
            self.backend.commit(tx._writes)
        finally:
            self._open_tx = None
        self.commits += 1

    def _abort(self, tx: Transaction) -> None:
        # lenient on purpose: a commit that raised already released the
        # slot, and the context manager still calls abort()
        if tx is self._open_tx:
            self._open_tx = None
        self.aborts += 1

    def recover(self) -> int:
        """Rebuild the backend's state and reopen; return #txns replayed."""
        self.generation += 1
        self.closed = False
        return self.backend.recover()

    def checkpoint(self) -> None:
        """Compact the ``single`` backend's log."""
        if self._open_tx is not None or self.closed:
            raise TransactionError("cannot checkpoint a closed store or "
                                   "with an open transaction")
        self.backend.checkpoint()

    def close(self) -> None:
        """Release the ``single`` backend's log; until the next
        :meth:`recover` every transaction, even an open one, is refused."""
        self.backend.close()
        self.closed = True
        self._open_tx = None

    def stats(self) -> Dict[str, Any]:
        return self.backend.stats({"commits": self.commits,
                                   "aborts": self.aborts})


class WriteAheadLog:
    """The ``single`` backend: every profile in memory, made durable by
    an append-only log of committed transactions when ``log_path`` is set."""

    #: a profile read's span label; a read consults the one copy and
    #: prices nothing itself (the service charges its own cost)
    component = "ProfileStore"
    last_op_cost_s = 0.0
    last_op_hops = 1

    def __init__(self, log_path: Optional[str] = None,
                 sync: bool = False) -> None:
        self.log_path = log_path
        self.sync = sync
        self._data: Dict[str, Dict[str, Any]] = {}
        self._next_tx = 1
        self._log: Optional[IO[str]] = None

    def read(self, user_id: str) -> Dict[str, Any]:
        """The user's profile itself: the front copies it."""
        return self._data[user_id] if user_id in self._data else {}

    def users(self) -> List[str]:
        return sorted(self._data)

    def commit(self, writes: List[Write]) -> None:
        if self._log is not None:
            self._write(self._log, writes)
        self._apply(writes)

    def _write(self, log: IO[str], writes: List[Write]) -> None:
        """Log one transaction, ``begin`` to a flushed ``commit``."""
        tx_id = self._next_tx
        self._next_tx += 1
        records = [{"op": "begin", "tx": tx_id}]
        records += ({"op": "del", "tx": tx_id, "user": user, "key": key}
                    if value == TOMBSTONE else
                    {"op": "set", "tx": tx_id, "user": user, "key": key,
                     "value": value}
                    for user, key, value in writes)
        records.append({"op": "commit", "tx": tx_id})
        log.write("".join(json.dumps(record) + "\n" for record in records))
        log.flush()
        if self.sync:
            os.fsync(log.fileno())

    def _apply(self, writes: List[Write]) -> None:
        for user_id, key, value in writes:
            profile = self._data.setdefault(user_id, {})
            if value == TOMBSTONE:
                profile.pop(key, None)
                if not profile:
                    self._data.pop(user_id, None)
            else:
                profile[key] = value

    def recover(self) -> int:
        """Rebuild state from the log, open it to append; return #txns.

        Only operations bracketed by matching ``begin``/``commit`` records
        are applied; a torn final line (crash mid-write) is tolerated, but
        corruption earlier in the log raises :class:`StoreCorrupt`.

        A torn tail is also sealed on disk — truncated off, or given
        its missing newline when the crash landed exactly on a record
        boundary — so records appended after recovery cannot splice
        onto torn bytes and corrupt the *next* recovery.
        """
        self._data = {}
        if self.log_path is None:
            return 0
        lines: List[str] = []
        if os.path.exists(self.log_path):
            with open(self.log_path, "r", encoding="utf-8") as log:
                lines = log.readlines()
        committed = 0
        pending: Dict[int, List[Write]] = {}
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
                    (record["user"], record["key"], TOMBSTONE))
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
        if self._log is None:
            self._log = open(self.log_path, "a", encoding="utf-8")
        return committed

    def checkpoint(self) -> None:
        """Compact the log to a snapshot of current state."""
        if self.log_path is None:
            return
        self.close()
        temp_path = self.log_path + ".compact"
        with open(temp_path, "w", encoding="utf-8") as log:
            self._write(log, [(user_id, key, value)
                              for user_id in sorted(self._data)
                              for key, value in sorted(
                                  self._data[user_id].items())])
        os.replace(temp_path, self.log_path)
        self._log = open(self.log_path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def verify_committed(self) -> List[Dict[str, Any]]:
        """Lost committed writes: none, the one copy holds every one."""
        return []

    def stats(self, counters: Dict[str, int]) -> Dict[str, int]:
        return counters


def open_profile_store(cluster: Any, backend: Optional[str],
                       log_path: Optional[str] = None,
                       validator: Optional[Validator] = None
                       ) -> Tuple[Any, Any]:
    """Build the profile storage a deployment asked for; returns
    ``(store, bricks)``.  ``None`` is no store at all, ``"single"`` a
    :class:`ProfileStore` over a :class:`WriteAheadLog`, ``"dstore"``
    one over a :class:`~repro.dstore.store.QuorumCoordinator` of a
    freshly booted :class:`~repro.dstore.BrickCluster` on ``cluster`` —
    the only case with ``bricks``, which chaos and supervision reach
    through the fabric."""
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
    from repro.dstore import BrickCluster, QuorumCoordinator
    bricks = BrickCluster(cluster).boot()
    return ProfileStore(backend=QuorumCoordinator(bricks),
                        validator=validator), bricks


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
        self._generation = store.generation
        self.hits = 0
        self.misses = 0
        self.generation_flushes = 0

    def _check_generation(self) -> None:
        generation = self.store.generation
        if generation != self._generation:
            self._cache.clear()
            self._generation = generation
            self.generation_flushes += 1

    def get(self, user_id: str) -> Dict[str, Any]:
        """A copy of the user's profile."""
        return self.overlay(user_id, {})

    def overlay(self, user_id: str, base: Dict[str, Any]) -> Dict[str, Any]:
        """A new dict: ``base`` overlaid with the user's profile — a
        service's defaults merged with what the user set, in one copy."""
        self._check_generation()
        cache = self._cache
        if user_id in cache:
            self.hits += 1
        else:
            self.misses += 1
            cache[user_id] = self.store.get(user_id)
        merged = dict(base)
        merged.update(cache[user_id])
        return merged

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
