"""Tests for the origin server ('the Internet')."""

import gc
import tracemalloc

import pytest

from repro.sim.cluster import Cluster
from repro.tacc.content import MIME_GIF
from repro.transend.origin import OriginServer
from repro.workload.trace import TraceRecord


def record(url="http://x/a.gif", mime=MIME_GIF, size=8192):
    return TraceRecord(0.0, "c1", url, mime, size)


def make_origin(internet_bps=None):
    cluster = Cluster(seed=6)
    link = None
    if internet_bps is not None:
        link = cluster.add_access_link("internet", internet_bps)
    return cluster, OriginServer(cluster, link)


def test_sim_mode_materializes_exact_size():
    cluster, origin = make_origin()
    content = origin.materialize(record(size=12345))
    assert content.size == 12345
    assert content.mime == MIME_GIF
    assert content.metadata["origin"] == "sim"


def test_simulated_originals_share_one_read_only_metadata():
    _, origin = make_origin()
    first = origin.materialize(record(url="http://x/1.gif"))
    second = origin.materialize(record(url="http://x/2.gif", size=10))
    assert first.metadata is second.metadata
    with pytest.raises(TypeError):
        first.metadata["origin"] = "changed"
    with pytest.raises(TypeError):
        first.metadata.update(cached=True)
    assert second.metadata == {"origin": "sim"}
    tagged = first.with_metadata(cached=True)
    assert tagged.metadata == {"origin": "sim", "cached": True}
    assert second.metadata == {"origin": "sim"}


#: bytes a cached simulated original may hold, its payload stand-in
#: included.  A slotted `Content` sharing one metadata mapping takes
#: about 156; with an attribute dict and a metadata dict of its own it
#: took about 381.
SIMULATED_CONTENT_BYTES = 175


def test_simulated_content_footprint_stays_in_budget():
    """The cache keeps every original it stores for a deployment's
    whole life, so the bytes per cached original are defended as a
    count.  The records (and their URL strings) exist before the
    measurement, as the trace's do."""
    _, origin = make_origin()
    records = [record(url=f"http://x/{index}.gif", size=1000 + index)
               for index in range(5000)]
    cached = []
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for each in records:
            cached.append(origin.materialize(each))
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_content = (after - before) / len(cached)
    assert per_content <= SIMULATED_CONTENT_BYTES, per_content


def test_fetch_pays_miss_penalty():
    cluster, origin = make_origin()

    def scenario():
        start = cluster.env.now
        content = yield from origin.fetch(record())
        return cluster.env.now - start, content

    elapsed, content = cluster.env.run(
        until=cluster.env.process(scenario()))
    assert elapsed >= 0.1  # the minimum miss penalty
    assert origin.fetches == 1
    assert origin.bytes_fetched == content.size or \
        origin.bytes_fetched == 8192


def test_fetch_charges_internet_link():
    cluster, origin = make_origin(internet_bps=10_000.0)

    def scenario():
        yield from origin.fetch(record(size=5000))

    cluster.env.run(until=cluster.env.process(scenario()))
    link = cluster.network.access_links["internet"]
    assert link.bytes_sent == 5000
