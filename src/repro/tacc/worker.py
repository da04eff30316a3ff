"""Worker base classes: the paper's stateless building blocks.

Two shapes of worker exist (Section 2.3):

* a :class:`Transformer` is "an operation on a single data object that
  changes its content" — filtering, transcoding, re-rendering,
  encryption, compression;
* an :class:`Aggregator` "involves collecting data from several objects
  and collating it in a prespecified way".

Workers must be **stateless**: the only inputs are the request's content,
parameters, and the user-profile entries delivered with the request; the
only output is derived content.  Statelessness is what lets the SNS layer
restart a crashed worker anywhere, route around it, or run many
interchangeable instances ("a worker that performs a specific kind of
data compression can run anywhere that significant CPU cycles are
available", Section 1.3).

Workers also expose a *cost model* (``work_estimate``), the reference-CPU
seconds a request will take; the simulation charges that to the hosting
node, and the manager's load metric is built from the resulting queues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.tacc.content import MIME_OCTET, Content


class WorkerError(Exception):
    """A worker failed on a request (pathological input, missing param...).

    The SNS layer treats worker errors as per-request failures to route
    around (return the original content, or an error page) — never as
    reasons to take the service down.
    """


@dataclass
class TACCRequest:
    """One unit of work handed to a worker.

    ``params`` are service-supplied arguments (e.g. the distillation
    quality the front end chose); ``profile`` is the slice of the user's
    customization database delivered with the request (Section 2.3: "the
    appropriate profile information is automatically delivered to workers
    along with the input data").
    """

    inputs: List[Content]
    params: Dict[str, Any] = field(default_factory=dict)
    profile: Dict[str, Any] = field(default_factory=dict)
    user_id: Optional[str] = None

    @property
    def content(self) -> Content:
        """The single input, for transformers."""
        if len(self.inputs) != 1:
            raise WorkerError(
                f"expected exactly one input, got {len(self.inputs)}")
        return self.inputs[0]

    def param(self, key: str, default: Any = None) -> Any:
        """Parameter lookup: explicit params override profile entries."""
        if key in self.params:
            return self.params[key]
        return self.profile.get(key, default)


class Worker:
    """Base class; subclass :class:`Transformer` or :class:`Aggregator`."""

    #: registry name of this worker type, e.g. "jpeg-distiller".
    worker_type: str = "worker"
    #: MIME types accepted as input; empty means "anything".
    accepts: Sequence[str] = ()
    #: MIME type produced, or None if same-as-input.
    produces: Optional[str] = None

    def accepts_mime(self, mime: str) -> bool:
        return not self.accepts or mime in self.accepts

    def work_estimate(self, request: TACCRequest) -> float:
        """Reference-CPU seconds this request will cost.

        Default: proportional to total input size at the paper's measured
        GIF-distiller slope of ~8 ms/KB (Section 4.3).  Subclasses with
        calibrated models override this.
        """
        total_bytes = sum(content.size for content in request.inputs)
        return 0.008 * (total_bytes / 1024.0)

    def work_sample(self, rng: Any, request: TACCRequest) -> float:
        """Reference-CPU seconds the worker stub charges for this one
        request.  A worker whose cost varies around its estimate draws
        the variation from ``rng`` (the stub's own stream)."""
        return self.work_estimate(request)

    def run(self, request: TACCRequest) -> Content:
        raise NotImplementedError

    # -- end-to-end health surface (repro.recovery) --------------------------

    def probe_request(self) -> TACCRequest:
        """A tiny synthetic request the supervision layer uses for health
        probes.  Deliberately small (64 bytes) so the probe's nominal
        service time is negligible next to the probe timeout; only a
        gray-failed worker (hung, zombie, inflated, corrupting) turns it
        into a failure signal."""
        probe = Content(url="probe://health", mime=MIME_OCTET,
                        data=b"\x00" * 64, metadata={"probe": True})
        return TACCRequest(inputs=[probe])

    def corrupt_result(self, content: Content) -> Content:
        """What this worker's output looks like when its output path is
        corrupting: the bytes ship, but flagged invalid so end-to-end
        validation catches them."""
        return content.with_metadata(output_valid=False)

    def validate_result(self, content: Content) -> bool:
        """End-to-end output validation, the detector of last resort for
        corrupt-output gray failures."""
        return content.metadata.get("output_valid", True) is not False

    def simulate(self, request: TACCRequest) -> Content:
        """Produce a size-accurate result without real computation.

        The cluster simulation processes hundreds of thousands of
        requests; distillers override this with their calibrated size
        models so experiments do not pay for real pixel work.  The
        default falls back to :meth:`run` (real execution).
        """
        return self.run(request)


class Transformer(Worker):
    """A worker over exactly one input object."""

    def run(self, request: TACCRequest) -> Content:
        return self.transform(request.content, request)

    def transform(self, content: Content, request: TACCRequest) -> Content:
        raise NotImplementedError


class Aggregator(Worker):
    """A worker that collates several input objects into one."""

    def run(self, request: TACCRequest) -> Content:
        if not request.inputs:
            raise WorkerError("aggregator requires at least one input")
        return self.aggregate(list(request.inputs), request)

    def aggregate(self, inputs: List[Content],
                  request: TACCRequest) -> Content:
        raise NotImplementedError
