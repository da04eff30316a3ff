"""Trace records and trace files.

One :class:`TraceRecord` is one HTTP request as the paper's packet-filter
tracer captured it: a timestamp, an (anonymized) client, a URL, the MIME
type the collector inferred, and the content length.  Traces serialize to
a simple tab-separated format so generated workloads can be saved once
and replayed across experiments.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple


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
        parts = line.rstrip("\n").split("\t")
        if len(parts) not in (5, 6):
            raise ValueError(f"malformed trace line: {line!r}")
        return cls(
            timestamp=float(parts[0]),
            client_id=parts[1],
            url=parts[2],
            mime=parts[3],
            size_bytes=int(parts[4]),
            priority=parts[5] if len(parts) == 6 else "interactive",
        )


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
    :meth:`~repro.workload.playback.PlaybackEngine.play`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield TraceRecord.from_line(line)


def load_trace(path: str) -> List[TraceRecord]:
    """Read a whole trace file into memory (see :func:`iter_trace` for
    the streaming variant)."""
    return list(iter_trace(path))
