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

from repro.tacc.content import (
    Content,
    ZeroPayload,
    zero_payload,
)
from repro.tacc.worker import (
    Aggregator,
    TACCRequest,
    Transformer,
    Worker,
    WorkerError,
)
from repro.tacc.pipeline import Pipeline, PipelineError
from repro.tacc.registry import WorkerRegistry
from repro.tacc.sdk import BenchReport, WorkerBench, check_worker
from repro.tacc.customization import (
    ProfileStore,
    StoreCorrupt,
    Transaction,
    TransactionError,
    WriteThroughCache,
)

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
    "WriteThroughCache",
    "ZeroPayload",
    "check_worker",
    "zero_payload",
]
