"""TranSend: the scalable Web distillation proxy (Sections 3-4).

TranSend is the paper's flagship instantiation of the architecture: an
HTTP proxy for the UC Berkeley dialup population that distills inline
images (3-5x end-to-end latency win) and caches both original and
post-transformation content.  This package is the *Service layer*: it
composes the SNS fabric, the TACC distillers, the Harvest-like cache
subsystem, and the ACID preference database into the deployed service.

Quick use (see ``examples/transend_proxy.py``)::

    from repro.transend import TranSend

    transend = TranSend(n_nodes=8, seed=1997)
    transend.start()
    reply = transend.submit(record)      # a workload TraceRecord
    response = transend.run(reply)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "origin": ("OriginServer",),
    "cachesys": ("CacheNode", "CacheSubsystem"),
    "profiles": ("DEFAULT_PREFERENCES", "preference_validator"),
    "service": ("TranSend", "TranSendLogic"),
})

__all__ = [
    "CacheNode",
    "CacheSubsystem",
    "DEFAULT_PREFERENCES",
    "OriginServer",
    "TranSend",
    "TranSendLogic",
    "preference_validator",
]
