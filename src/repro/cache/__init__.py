"""Caching substrate: the Harvest-derived cache subsystem.

TranSend ran Harvest object caches on four nodes (Section 3.1.5), with
three notable engineering moves reproduced here:

* the manager stub treats separate cache nodes as a **single virtual
  cache**, hashing the key space across them and re-hashing when nodes
  come or go (:class:`~repro.transend.cachesys.CacheSubsystem` over a
  :class:`~repro.cache.partition.ModHashPartitioner`);
* distillers can **inject post-transformation data** into the cache
  (``CacheSubsystem.store`` — in stock Harvest this required a patch);
* each cache request pays a fresh **TCP connection** (15 ms of the 27 ms
  average hit time), a deficiency the paper kept and we model.

Caching is "only an optimization": all cached data is BASE soft state and
can be discarded at a performance cost — the cache node's ``flush`` models
exactly that.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "lru": ("LRUCache",),
    "partition": ("ModHashPartitioner",),
    "latency": ("HarvestLatencyModel",),
    "simulator": ("CacheSimulator",),
})

__all__ = [
    "CacheSimulator",
    "HarvestLatencyModel",
    "LRUCache",
    "ModHashPartitioner",
]
