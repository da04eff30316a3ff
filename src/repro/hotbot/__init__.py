"""HotBot: the Inktomi search engine (Sections 1.1, 3.2).

HotBot is the paper's second validating service — an *aggregation*
server: "the HotBot search engine collects search results from a number
of database partitions and collates the results."  It predates the SNS
framework and differs from TranSend in exactly the ways Table 1 lists:

* **static** load balancing by read-only data partitioning (every query
  goes to all workers in parallel), not dynamic queue-based balancing;
* workers **bound to their nodes** (each owns a disk-resident partition)
  rather than interchangeable;
* failure management **distributed to each node**: RAID absorbs disk
  failures, fast restart bounds node failures, and losing a node just
  shrinks the database ("with 26 nodes the loss of one machine results
  in the database dropping from 54M to about 51M documents");
* a real parallel ACID database (Informix) for profiles and ad-revenue
  tracking, good for about 400 requests/second.

This package provides a real (small-scale) corpus + inverted index, the
partitioned cluster search service, and the failure models for both the
original cross-mounted design and the RAID/fast-restart design.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "documents": ("Corpus", "Document"),
    "index": ("InvertedIndex", "SearchHit"),
    "partition": ("PartitionMap",),
    "service": ("HotBot", "HotBotConfig", "InformixModel", "QueryResult"),
})

__all__ = [
    "Corpus",
    "Document",
    "HotBot",
    "HotBotConfig",
    "InformixModel",
    "InvertedIndex",
    "PartitionMap",
    "QueryResult",
    "SearchHit",
]
