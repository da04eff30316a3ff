"""The origin "Internet": where cache misses go.

A miss costs two things, both modelled from Section 4.4:

* the wide-area fetch time — "the miss penalty ... varies widely, from
  100 ms through 100 seconds" (the Harvest latency model's bounded
  Pareto);
* bytes across the installation's Internet access link (the 10 Mb/s
  segment in the paper's testbed), which is how external bandwidth can
  become the bottleneck.

Content is materialized deterministically per URL: the same URL always
yields the same bytes, in either *sim* mode (placeholder bytes of the
traced size — cheap, used by the big experiments) or *real* mode (actual
synthetic images and HTML that the distillers genuinely transform).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.latency import HarvestLatencyModel
from repro.distillers.images import photo_sized_for
from repro.sim.cluster import Cluster
from repro.sim.kernel import Timeout
from repro.sim.network import AccessLink
from repro.tacc.content import (
    MIME_GIF,
    MIME_HTML,
    MIME_JPEG,
    Content,
    FrozenMetadata,
    ZeroPayload,
)
from repro.workload.trace import TraceRecord

#: the metadata of every simulated original: one read-only mapping,
#: not a new dict per fetch
SIM_METADATA = FrozenMetadata(origin="sim")

_HTML_BODY_CHUNK = (
    '<p>Lorem ipsum dolor sit amet.</p>\n'
    '<img src="http://img.example/inline.gif" alt="x">\n'
)


class OriginServer:
    """Materializes Web content and charges wide-area fetch costs."""

    def __init__(self, cluster: Cluster,
                 internet_link: Optional[AccessLink] = None,
                 real_content: bool = False) -> None:
        self.cluster = cluster
        self.internet_link = internet_link
        self.real_content = real_content
        self.rng = cluster.streams.stream("origin")
        self.latency = HarvestLatencyModel(
            cluster.streams.stream("miss-penalty"))
        self._miss_penalty = self.latency.miss_penalty
        self.fetches = 0
        self.bytes_fetched = 0
        self._real_cache: Dict[str, Content] = {}

    def fetch(self, record: TraceRecord, trace=None):
        """Process generator: fetch ``record``'s content from the wide
        area, paying the miss penalty and the Internet link."""
        span = None
        if trace is not None:
            span = trace.child("origin-fetch", "origin",
                               component="internet")
            span.annotate(url=record.url, bytes=record.size_bytes)
        env = self.cluster.env
        penalty = self._miss_penalty()
        yield Timeout(env, penalty)
        if self.internet_link is not None:
            delay = self.internet_link.reserve(record.size_bytes)
            yield Timeout(env, delay)
        self.fetches += 1
        self.bytes_fetched += record.size_bytes
        if span is not None:
            span.annotate(miss_penalty_s=round(penalty, 6)).finish()
        return self.materialize(record)

    # -- content materialization -----------------------------------------------

    def materialize(self, record: TraceRecord) -> Content:
        if self.real_content:
            return self._real(record)
        return Content(
            url=record.url,
            mime=record.mime,
            data=ZeroPayload(record.size_bytes),
            metadata=SIM_METADATA,
        )

    def _real(self, record: TraceRecord) -> Content:
        """Actual distillable bytes, memoized per URL."""
        cached = self._real_cache.get(record.url)
        if cached is not None:
            return cached
        if record.mime == MIME_GIF:
            image = photo_sized_for(self.rng,
                                    max(256, record.size_bytes))
            content = Content(record.url, MIME_GIF, image.encode_gif())
        elif record.mime == MIME_JPEG:
            image = photo_sized_for(self.rng,
                                    max(256, record.size_bytes))
            content = Content(record.url, MIME_JPEG,
                              image.encode_jpeg(quality=90))
        elif record.mime == MIME_HTML:
            repeats = max(1, record.size_bytes // len(_HTML_BODY_CHUNK))
            body = _HTML_BODY_CHUNK * repeats
            page = f"<html><body>{body}</body></html>"
            content = Content(record.url, MIME_HTML, page.encode())
        else:
            content = Content(record.url, record.mime,
                              b"\xde\xad" * (record.size_bytes // 2 + 1))
        self._real_cache[record.url] = content
        return content
