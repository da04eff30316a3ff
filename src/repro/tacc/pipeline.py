"""Unix-pipeline composition of workers.

"Our initial implementation allows Unix-pipeline-like chaining of an
arbitrary number of stateless transformations and aggregations"
(Section 2.3).  A :class:`Pipeline` is an ordered list of worker type
names; it can be type-checked against a registry (each stage must accept
the MIME type the previous stage produces) and executed locally, or
handed stage-by-stage to the SNS layer for remote execution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.tacc.content import Content
from repro.tacc.registry import WorkerRegistry
from repro.tacc.worker import TACCRequest


class PipelineError(Exception):
    """Composition or execution error in a worker chain."""


class Pipeline:
    """An ordered chain of worker types applied to one request."""

    def __init__(self, stages: Sequence[str]) -> None:
        if not stages:
            raise PipelineError("pipeline requires at least one stage")
        self.stages: List[str] = list(stages)

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)

    def __repr__(self) -> str:
        return "<Pipeline " + " | ".join(self.stages) + ">"

    def validate(self, registry: WorkerRegistry,
                 input_mime: Optional[str] = None) -> None:
        """Check every stage exists and MIME types chain correctly."""
        mime = input_mime
        for worker_type in self.stages:
            if worker_type not in registry:
                raise PipelineError(f"unknown stage {worker_type!r}")
            worker = registry.create(worker_type)
            if mime is not None and not worker.accepts_mime(mime):
                raise PipelineError(
                    f"stage {worker_type!r} does not accept {mime!r}")
            if worker.produces is not None:
                mime = worker.produces

    def execute(self, registry: WorkerRegistry,
                request: TACCRequest, trace=None) -> Content:
        """Run all stages locally, threading content through the chain.

        This is the library-mode executor; under the SNS layer the front
        end performs the same walk but dispatches each stage to a remote
        worker instance chosen by lottery scheduling.  With a ``trace``
        span, each stage records an (instantaneous, sim-clock-wise)
        child span carrying its input/output sizes — the per-stage
        timing under the SNS layer lives in the dispatch/worker spans.
        """
        inputs = list(request.inputs)
        result: Optional[Content] = None
        for index, worker_type in enumerate(self.stages):
            worker = registry.create(worker_type)
            stage_request = TACCRequest(
                inputs=inputs,
                params=request.params,
                profile=request.profile,
                user_id=request.user_id,
            )
            result = worker.run(stage_request)
            if trace is not None:
                trace.record(
                    f"stage:{worker_type}", "service",
                    trace.tracer.env.now, component="pipeline",
                    stage=index,
                    in_bytes=sum(item.size for item in inputs),
                    out_bytes=result.size)
            inputs = [result]
        assert result is not None
        return result
