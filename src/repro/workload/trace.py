"""Trace records and trace files.

One :class:`TraceRecord` is one HTTP request as the paper's packet-filter
tracer captured it: a timestamp, an (anonymized) client, a URL, the MIME
type the collector inferred, and the content length.  Traces serialize to
a simple tab-separated format so generated workloads can be saved once
and replayed across experiments.

A trace held in memory is a :class:`Trace`: the records' fields kept as
columns, each record made only when it is read.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import islice, repeat
from operator import eq
from typing import Any, Dict, Iterable, Iterator, NamedTuple, Tuple

from repro.domains import at_least, choice, finite

#: the priority classes a request may carry
PRIORITIES = ("interactive", "batch")
_INFINITY = float("inf")


class TraceRecord(NamedTuple):
    """One traced HTTP request.

    A ``NamedTuple`` rather than a dataclass: trace generation is the
    innermost producer of a ten-million-request replay, and tuple
    construction is several times cheaper than a frozen dataclass's
    per-field ``object.__setattr__`` — while keeping immutability,
    value equality, hashing, and pickling.
    """

    timestamp: float
    client_id: str
    url: str
    mime: str
    size_bytes: int
    #: request priority class: "interactive" (a human waiting) or
    #: "batch" (crawlers, prefetchers) — what priority-class admission
    #: sheds first under overload.
    priority: str = "interactive"

    #: what a trace file's fields may hold; consulted only to word a
    #: refusal (the checks in :meth:`from_line` are inline)
    DOMAINS = {"timestamp": finite(), "size_bytes": at_least(0),
               "priority": choice(*PRIORITIES)}

    def to_line(self) -> str:
        fields = [
            f"{self.timestamp:.6f}",
            self.client_id,
            self.url,
            self.mime,
            str(self.size_bytes),
        ]
        # the 6th column appears only for non-default priorities, so
        # traces written before the field existed stay byte-identical
        if self.priority != "interactive":
            fields.append(self.priority)
        return "\t".join(fields)

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        """Parse one line of a trace file; a line whose timestamp is not
        finite, whose size is below 0 or whose priority is not a known
        class is refused (a NaN first timestamp would launch every
        request of a replay at once)."""
        parts = line.rstrip("\n").split("\t")
        if len(parts) not in (5, 6):
            raise ValueError(f"malformed trace line: {line!r}")
        timestamp = float(parts[0])
        size_bytes = int(parts[4])
        priority = parts[5] if len(parts) == 6 else "interactive"
        if not -_INFINITY < timestamp < _INFINITY:
            cls.DOMAINS["timestamp"].check("timestamp", timestamp)
        if size_bytes < 0:
            cls.DOMAINS["size_bytes"].check("size_bytes", size_bytes)
        if priority not in PRIORITIES:
            cls.DOMAINS["priority"].check("priority", priority)
        return cls(timestamp, parts[1], parts[2], parts[3], size_bytes,
                   priority)


#: makes a record from a tuple of its fields without a Python-level call
_new_record = tuple.__new__
#: records read per step while a trace's columns are filled: a short
#: chunk transposes fastest (its records stay in the CPU cache)
_CHUNK = 512


class Trace(Sequence):
    """A read-only sequence of :class:`TraceRecord`, held as columns.

    Timestamps and sizes are typed arrays, clients and URLs one
    reference per record to a shared string (the generator's document
    and client names; :func:`load_trace` keeps each distinct string
    once), and MIME type and priority a one-byte index into a small
    table.  A record takes about 36 bytes at rest instead of about 128
    as a tuple with its own timestamp float.  Reading makes each
    record: iteration builds them in C (no Python-level call per
    record), so a replay holds a record only while its request is in
    flight.

    A trace compares equal to the list of the same records, from either
    side, and slices to a trace.
    """

    __slots__ = ("_timestamps", "_client_ids", "_urls", "_mime_codes",
                 "_mimes", "_sizes", "_priority_codes", "_priorities")

    def __init__(self, records: Iterable[TraceRecord]) -> None:
        records = iter(records)
        self._fill(iter(lambda: list(islice(records, _CHUNK)), []))

    @classmethod
    def of_chunks(cls, chunks: Iterable[Sequence[TraceRecord]]) -> "Trace":
        """The trace of the records of ``chunks`` in turn, each chunk
        transposed whole (a trace generator's one-second buckets)."""
        trace = cls.__new__(cls)
        trace._fill(chunks)
        return trace

    def _fill(self, chunks: Iterable[Sequence[TraceRecord]]) -> None:
        timestamps, client_ids, urls = array("d"), [], []
        mime_codes, sizes, priority_codes = bytearray(), array("q"), \
            bytearray()
        mime_table: Dict[str, int] = {}
        priority_table = {priority: code
                          for code, priority in enumerate(PRIORITIES)}
        for chunk in chunks:
            if not chunk:
                continue
            chunk_times, chunk_clients, chunk_urls, chunk_mimes, \
                chunk_sizes, chunk_priorities = zip(*chunk)
            # a typed array built from a tuple, then appended whole, is
            # about twice as fast as extending by the tuple's items
            timestamps.extend(array("d", chunk_times))
            client_ids.extend(chunk_clients)
            urls.extend(chunk_urls)
            mime_codes.extend(_codes(mime_table, chunk_mimes))
            sizes.extend(array("q", chunk_sizes))
            priority_codes.extend(_codes(priority_table, chunk_priorities))
        self._timestamps, self._client_ids, self._urls = \
            timestamps, client_ids, urls
        self._mime_codes, self._mimes = mime_codes, tuple(mime_table)
        self._sizes = sizes
        self._priority_codes, self._priorities = \
            priority_codes, tuple(priority_table)

    def __len__(self) -> int:
        return len(self._timestamps)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_new_record, repeat(TraceRecord), zip(
            self._timestamps, self._client_ids, self._urls,
            map(self._mimes.__getitem__, self._mime_codes), self._sizes,
            map(self._priorities.__getitem__, self._priority_codes)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            trace = Trace.__new__(Trace)
            trace.__setstate__((
                self._timestamps[index], self._client_ids[index],
                self._urls[index], self._mime_codes[index], self._mimes,
                self._sizes[index], self._priority_codes[index],
                self._priorities))
            return trace
        return _new_record(TraceRecord, (
            self._timestamps[index], self._client_ids[index],
            self._urls[index], self._mimes[self._mime_codes[index]],
            self._sizes[index],
            self._priorities[self._priority_codes[index]]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Trace, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]  # unhashable, as a list is

    def __reduce__(self):
        return (Trace, ([],), (
            self._timestamps, self._client_ids, self._urls,
            self._mime_codes, self._mimes, self._sizes,
            self._priority_codes, self._priorities))

    def __setstate__(self, columns: Tuple[Any, ...]) -> None:
        (self._timestamps, self._client_ids, self._urls, self._mime_codes,
         self._mimes, self._sizes, self._priority_codes,
         self._priorities) = columns


def _codes(table: Dict[str, int], values: Tuple[str, ...]) -> bytes:
    """Each of ``values`` as its one-byte index in ``table``, new values
    added (a trace holds at most 256 distinct ones)."""
    for value in dict.fromkeys(values):
        if value not in table:
            table[value] = len(table)
    return bytes(map(table.__getitem__, values))


def save_trace(records: Iterable[TraceRecord], path: str) -> int:
    """Write records to ``path``; returns the count written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_line() + "\n")
            count += 1
    return count


def iter_trace(path: str) -> Iterator[TraceRecord]:
    """Stream records from a trace file written by :func:`save_trace`.

    Reads one line at a time, so a multi-million-request trace replays
    with bounded memory — feed the iterator straight to
    :meth:`~repro.workload.playback.PlaybackEngine.play`.  A line that
    cannot be read raises a ``ValueError`` naming ``path:line``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if line.strip():
                try:
                    record = TraceRecord.from_line(line)
                except ValueError as error:
                    raise ValueError(f"{path}:{number}: {error}") \
                        from error
                yield record


def load_trace(path: str) -> Trace:
    """Read a whole trace file into memory (see :func:`iter_trace` for
    the streaming variant).  Equal client and url strings are kept
    once, as a generated trace keeps them."""
    shared: Dict[str, str] = {}
    share = shared.setdefault
    return Trace(
        TraceRecord(timestamp, share(client_id, client_id), share(url, url),
                    mime, size_bytes, priority)
        for timestamp, client_id, url, mime, size_bytes, priority
        in iter_trace(path))
