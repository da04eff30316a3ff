"""MIME-typed content objects flowing through TACC pipelines.

A :class:`Content` is the unit of data the paper's workers transform: a
Web object with a URL, a MIME type, a byte payload, and free-form
metadata (distillation provenance, original size, etc.).  Content is
immutable-by-convention: workers return new Content rather than mutating
input, which is what makes them composable and restartable (BASE soft
state — any derived content can be regenerated from the original).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

#: MIME types the paper's trace analysis found dominant (Section 4.1):
#: GIF 50 %, HTML 22 %, JPEG 18 %.
MIME_GIF = "image/gif"
MIME_JPEG = "image/jpeg"
MIME_HTML = "text/html"
MIME_PLAIN = "text/plain"
MIME_OCTET = "application/octet-stream"


class ZeroPayload:
    """Lazy all-zero byte payload for synthetic simulated content.

    The cluster simulation is size-driven: it charges for ``len(data)``
    but almost never reads the bytes, yet every synthetic payload used
    to materialize ``b"\\x00" * n`` — hundreds of megabytes of
    throwaway allocations over a million-request replay.  A
    ``ZeroPayload`` answers ``len()`` (and size-preserving operations
    like repetition) without allocating; anything that genuinely needs
    byte content materializes once and caches.

    Instances compare equal to real all-zero byte strings of the same
    length, so process-pair output comparison and content equality are
    unchanged.
    """

    __slots__ = ("_size", "_data")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self._size = int(size)
        self._data = None

    def materialize(self) -> bytes:
        if self._data is None:
            self._data = bytes(self._size)
        return self._data

    def __bytes__(self) -> bytes:
        return self.materialize()

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, ZeroPayload):
            return self._size == other._size
        if isinstance(other, (bytes, bytearray, memoryview)):
            return len(other) == self._size and not any(bytes(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.materialize())

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, slice):
            start, stop, step = key.indices(self._size)
            if step == 1:
                return ZeroPayload(max(0, stop - start))
            return ZeroPayload(len(range(start, stop, step)))
        if isinstance(key, int):
            if key < -self._size or key >= self._size:
                raise IndexError("index out of range")
            return 0
        raise TypeError(f"indices must be integers or slices, "
                        f"not {type(key).__name__}")

    def __iter__(self):
        return iter(bytes(self._size) if self._data is None
                    else self._data)

    def __mul__(self, count: int) -> "ZeroPayload":
        return ZeroPayload(self._size * max(0, int(count)))

    __rmul__ = __mul__

    def __add__(self, other: Any) -> bytes:
        return self.materialize() + bytes(other)

    def __radd__(self, other: Any) -> bytes:
        return bytes(other) + self.materialize()

    def decode(self, encoding: str = "utf-8",
               errors: str = "strict") -> str:
        return self.materialize().decode(encoding, errors)

    def __reduce__(self):
        return (ZeroPayload, (self._size,))

    def __repr__(self) -> str:
        return f"ZeroPayload({self._size})"


def zero_payload(size: int) -> ZeroPayload:
    """A lazy ``size``-byte all-zero payload (see :class:`ZeroPayload`)."""
    return ZeroPayload(size)


class FrozenMetadata(dict):
    """Metadata that refuses every change in place: a mapping many
    contents share (every simulated original carries the same one), so
    a change through one content would show through all of them.
    :meth:`Content.derive` and :meth:`Content.with_metadata` make a
    changed copy instead."""

    __slots__ = ()

    def _refuse(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("shared content metadata is read-only; use "
                        "Content.with_metadata for a changed copy")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return (FrozenMetadata, (dict(self),))


@dataclass(frozen=True, slots=True)
class Content:
    """One Web object (original or derived).

    Slotted: a cache holds one per cached object for a deployment's
    whole life, and a slotted instance carries no attribute dict."""

    url: str
    mime: str
    data: bytes
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: ``len(data)``, measured once: the request path reads it ~7 times
    #: per request.  Written only by ``__post_init__`` (frozen after).
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", len(self.data))

    @property
    def is_derived(self) -> bool:
        """True if produced by a worker rather than fetched from origin."""
        return bool(self.metadata.get("derived_by"))

    def derive(self, data: bytes, mime: Optional[str] = None,
               worker: str = "?", **extra: Any) -> "Content":
        """New Content derived from this one, recording provenance."""
        metadata = dict(self.metadata)
        metadata.update(extra)
        metadata["derived_by"] = worker
        metadata["original_size"] = self.metadata.get(
            "original_size", self.size)
        return Content(
            url=self.url,
            mime=mime if mime is not None else self.mime,
            data=data,
            metadata=metadata,
        )

    def with_metadata(self, **extra: Any) -> "Content":
        metadata = dict(self.metadata)
        metadata.update(extra)
        return replace(self, metadata=metadata)

    def reduction_factor(self) -> float:
        """original_size / size — the distillation win (Figure 3)."""
        original = self.metadata.get("original_size", self.size)
        return original / self.size if self.size else float("inf")

    def __repr__(self) -> str:
        tag = " derived" if self.is_derived else ""
        return f"<Content {self.url} {self.mime} {self.size}B{tag}>"
