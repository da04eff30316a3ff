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

from repro.transend.origin import OriginServer
from repro.transend.adaptation import (
    AdaptationPolicy,
    BandwidthEstimator,
)
from repro.transend.cachesys import CacheNode, CacheSubsystem
from repro.transend.profiles import (
    DEFAULT_PREFERENCES,
    preference_validator,
)
from repro.transend.service import TranSend, TranSendLogic

__all__ = [
    "AdaptationPolicy",
    "BandwidthEstimator",
    "CacheNode",
    "CacheSubsystem",
    "DEFAULT_PREFERENCES",
    "OriginServer",
    "TranSend",
    "TranSendLogic",
    "preference_validator",
]
