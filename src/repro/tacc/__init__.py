"""TACC: the paper's service-programming model.

TACC stands for **T**ransformation, **A**ggregation, **C**aching, and
**C**ustomization (Section 2.3).  Services are written by composing
*stateless* worker modules — transformers operate on one data object,
aggregators collate several — in Unix-pipeline fashion, with per-user
profile data from an ACID customization database delivered automatically
alongside each request.

This package is usable standalone (workers run as plain Python callables —
see ``examples/quickstart.py``) and is also the worker code that the SNS
layer schedules across the simulated cluster.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "content": ("Content", "ZeroPayload", "zero_payload"),
    "worker": (
        "Aggregator", "TACCRequest", "Transformer", "Worker", "WorkerError"),
    "pipeline": ("Pipeline", "PipelineError"),
    "registry": ("WorkerRegistry",),
    "sdk": ("BenchReport", "WorkerBench", "check_worker"),
    "customization": (
        "ProfileStore", "StoreCorrupt", "Transaction", "TransactionError",
        "WriteAheadLog", "WriteThroughCache"),
})

__all__ = [
    "Aggregator",
    "BenchReport",
    "Content",
    "Pipeline",
    "PipelineError",
    "ProfileStore",
    "StoreCorrupt",
    "TACCRequest",
    "Transaction",
    "TransactionError",
    "Transformer",
    "Worker",
    "WorkerBench",
    "WorkerError",
    "WorkerRegistry",
    "WriteAheadLog",
    "WriteThroughCache",
    "ZeroPayload",
    "check_worker",
    "zero_payload",
]
