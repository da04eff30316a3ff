"""The origin "Internet": where cache misses go.

A miss costs two things, both modelled from Section 4.4:

* the wide-area fetch time — "the miss penalty ... varies widely, from
  100 ms through 100 seconds" (the Harvest latency model's bounded
  Pareto);
* bytes across the installation's Internet access link (the 10 Mb/s
  segment in the paper's testbed), which is how external bandwidth can
  become the bottleneck.

Content is simulated: a fetched original is placeholder bytes of the
traced size and MIME type, the same for the same record, so the
distillers downstream charge their calibrated cost and size models
rather than transform real pixels (the distillers' real transforms are
exercised on their own, outside the cluster simulation).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.latency import HarvestLatencyModel
from repro.sim.cluster import Cluster
from repro.sim.kernel import Timeout
from repro.sim.network import AccessLink
from repro.tacc.content import Content, FrozenMetadata, ZeroPayload
from repro.workload.trace import TraceRecord

#: the metadata of every simulated original: one read-only mapping,
#: not a new dict per fetch
SIM_METADATA = FrozenMetadata(origin="sim")


class OriginServer:
    """Materializes Web content and charges wide-area fetch costs."""

    def __init__(self, cluster: Cluster,
                 internet_link: Optional[AccessLink] = None) -> None:
        self.cluster = cluster
        self.internet_link = internet_link
        self.latency = HarvestLatencyModel(
            cluster.streams.stream("miss-penalty"))
        self._miss_penalty = self.latency.miss_penalty
        self.fetches = 0
        self.bytes_fetched = 0

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
        return Content(
            url=record.url,
            mime=record.mime,
            data=ZeroPayload(record.size_bytes),
            metadata=SIM_METADATA,
        )
