"""Spans, trace contexts, and the tracer.

A **span** is one timed hop of one request: the front end's netstack
reservation, the wait in a worker stub's queue, a SAN transfer, the
worker's service time, an origin fetch.  Spans form a tree per request
(the root is opened at ingress — by the playback engine when one is
driving, else by the front end) and carry a *category* that the
attribution report later sums into the paper-style queueing / service /
network / cache-miss decomposition.

Design constraints, in order:

1. **Zero cost when disabled.**  Every instrumentation site guards on
   ``span is not None`` (or ``env.tracer is None``); a disabled run
   makes no allocations, schedules no events, and draws no RNG.
2. **Zero perturbation when enabled.**  The tracer only reads
   ``env.now``.  Head-based sampling is a deterministic counter (every
   Nth root), not a random draw, so traced runs reproduce untraced
   measurements bit-for-bit.
3. **Causality is explicit.**  Contexts cross component boundaries
   inside the records that already cross them (``Request.trace``,
   ``WorkEnvelope.trace``) or via the synchronous hand-off protocol (:meth:`Tracer.hand_off` /
   :meth:`Tracer.take_pending`), which is safe because the simulator is
   cooperative: between a hand-off and the pick-up there is no yield
   point, hence no interleaving.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.sim.kernel import Environment

#: Span categories, in the order the attribution report lists them.
#: ``queueing``  — time spent waiting for a resource (thread pool,
#:                 worker queue, dispatch retries/backoff);
#: ``service``   — time a component actively worked the request;
#: ``network``   — SAN transfers, access links, the FE netstack;
#: ``cache``     — cache-subsystem probe time (hits and misses);
#: ``origin``    — the wide-area cache-miss penalty (Section 4.4);
#: ``client``    — the client-side delivery leg (modem bank);
#: ``other``     — root-covered time no child span accounts for.
QUEUEING = "queueing"
SERVICE = "service"
NETWORK = "network"
CACHE = "cache"
ORIGIN = "origin"
CLIENT = "client"
OTHER = "other"


class Span:
    """One timed, named hop in a request's causal tree."""

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "category", "component", "start", "end", "annotations")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: int,
                 parent_id: Optional[int], name: str, category: str,
                 component: str, start: float,
                 end: Optional[float] = None,
                 annotations: Optional[Dict[str, Any]] = None) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.component = component
        self.start = start
        self.end = end
        self.annotations = annotations or {}

    # -- tree construction --------------------------------------------------

    def child(self, name: str, category: str,
              component: Optional[str] = None,
              start: Optional[float] = None) -> "Span":
        """Open a child span (finish it with :meth:`finish`)."""
        return self.tracer._open_span(
            self.trace_id, self.span_id, name, category,
            component if component is not None else self.component,
            self.tracer.env.now if start is None else start)

    def record(self, name: str, category: str, start: float,
               component: Optional[str] = None,
               annotations: Optional[Dict[str, Any]] = None) -> "Span":
        """Record a child span from ``start`` to now in one call."""
        span = self.child(name, category, component, start=start)
        if annotations:
            span.annotations.update(annotations)
        span.finish()
        return span

    def finish(self) -> "Span":
        """Close the span at the current sim time."""
        if self.end is None:
            self.end = self.tracer.env.now
        return self

    def annotate(self, **kv: Any) -> "Span":
        self.annotations.update(kv)
        return self

    # -- queries ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:
        end = f"{self.end:.4f}" if self.end is not None else "..."
        return (f"<Span {self.trace_id}/{self.span_id} {self.name} "
                f"[{self.category}] @{self.component} "
                f"{self.start:.4f}-{end}>")


#: sentinel distinguishing "no pending hand-off" from "hand-off of an
#: unsampled (None) context".
_NO_PENDING = object()


class Tracer:
    """Per-environment span store with deterministic head sampling.

    ``sample_every=N`` keeps one request in N (the first of each block):
    the sampling decision happens once, at root creation, and the
    context simply does not exist for unsampled requests — no
    downstream site pays anything for them.
    """

    def __init__(self, env: Environment, sample_every: int = 1,
                 label: str = "") -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.env = env
        self.sample_every = sample_every
        #: free-form label ("arm=distilled") used by exporters.
        self.label = label
        self.spans: Dict[str, List[Span]] = {}
        self.requests_seen = 0
        self.requests_sampled = 0
        self._next_span_id = 0
        self._pending: Any = _NO_PENDING

    # -- root creation and sampling -----------------------------------------

    def open_trace(self, name: str, category: str = OTHER,
                   component: str = "client") -> Optional[Span]:
        """Start a new trace; returns None when head sampling skips it."""
        index = self.requests_seen
        self.requests_seen += 1
        if index % self.sample_every != 0:
            return None
        self.requests_sampled += 1
        trace_id = f"t{index:07d}"
        return self._open_span(trace_id, None, name, category,
                               component, self.env.now)

    def open_aux_trace(self, key: str, name: str,
                       component: str = "system",
                       annotations: Optional[Dict[str, Any]] = None
                       ) -> Optional[Span]:
        """Start an auxiliary (non-request) trace in category
        ``other``, e.g. one recovery case.  Unlike :meth:`open_trace`
        this neither consumes a head-sampling slot nor bumps
        ``requests_seen`` — attaching system activity to the store must
        not shift which *requests* get sampled.  ``key`` must be unique
        per trace; it is namespaced with an ``aux-`` prefix so ids never
        collide with request roots.
        """
        trace_id = f"aux-{key}"
        if trace_id in self.spans:
            raise ValueError(f"aux trace {trace_id!r} already open")
        span = self._open_span(trace_id, None, name, OTHER,
                               component, self.env.now)
        if annotations:
            span.annotations.update(annotations)
        return span

    def _open_span(self, trace_id: str, parent_id: Optional[int],
                   name: str, category: str, component: str,
                   start: float) -> Span:
        self._next_span_id += 1
        span = Span(self, trace_id, self._next_span_id, parent_id,
                    name, category, component, start)
        self.spans.setdefault(trace_id, []).append(span)
        return span

    # -- the synchronous hand-off protocol ----------------------------------

    def hand_off(self, span: Optional[Span]) -> None:
        """Offer ``span`` (possibly None: sampled-out) to the next
        ingress point down the current synchronous call chain."""
        self._pending = span

    def peek_pending(self) -> Any:
        """Read the pending hand-off without consuming it — for
        pass-through adapters (e.g. the modem bank) that want to hang
        their own spans off the root while letting the real ingress
        downstream consume the context."""
        return self._pending

    def take_pending(self) -> Any:
        """Consume the pending hand-off; returns :data:`_NO_PENDING`
        when no hand-off was offered (caller should open its own root)."""
        pending = self._pending
        self._pending = _NO_PENDING
        return pending

    def drop_pending(self) -> None:
        """Clear an unconsumed hand-off (the chain never reached an
        instrumented ingress, e.g. no live front end)."""
        self._pending = _NO_PENDING

    @staticmethod
    def was_handed_off(value: Any) -> bool:
        return value is not _NO_PENDING

    def ingress_span(self, name: str, component: str) -> Optional[Span]:
        """The ``service`` span of a request entering at an ingress
        point (a front end, HotBot's query path).

        Takes the pending hand-off: None when the request was sampled
        out upstream, a child of the root an instrumented client (the
        playback engine) handed off, and otherwise a root the ingress
        opens itself, nobody upstream having opened one.
        """
        pending = self.take_pending()
        if pending is _NO_PENDING:
            return self.open_trace(name, category=SERVICE,
                                   component=component)
        if pending is None:
            return None
        return pending.child(name, SERVICE, component=component)

    # -- queries ------------------------------------------------------------

    def trace(self, trace_id: str) -> List[Span]:
        return self.spans.get(trace_id, [])

    def finished_traces(self) -> Dict[str, List[Span]]:
        """Traces whose root span has been closed."""
        finished: Dict[str, List[Span]] = {}
        for trace_id, spans in self.spans.items():
            roots = [s for s in spans if s.parent_id is None]
            if roots and all(r.finished for r in roots):
                finished[trace_id] = spans
        return finished

    def all_spans(self) -> Iterable[Span]:
        for spans in self.spans.values():
            yield from spans

    # -- cross-process transport (repro.fanout) -----------------------------

    def state(self) -> Dict[str, Any]:
        """A picklable snapshot of everything exporters read.

        A live tracer drags the whole simulation world behind it
        (``self.env``); fan-out worker processes instead ship this plain
        structure back to the parent, which rebuilds detached tracers
        with :meth:`from_state`.  Span order (per trace, and the trace
        dict's insertion order) is preserved, so exporting rebuilt
        tracers is byte-identical to exporting the originals.
        """
        return {
            "label": self.label,
            "sample_every": self.sample_every,
            "requests_seen": self.requests_seen,
            "requests_sampled": self.requests_sampled,
            "traces": [
                (trace_id,
                 [(span.span_id, span.parent_id, span.name,
                   span.category, span.component, span.start, span.end,
                   dict(span.annotations) if span.annotations else None)
                  for span in spans])
                for trace_id, spans in self.spans.items()
            ],
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "Tracer":
        """Rebuild a detached tracer (``env is None``) from
        :meth:`state` output — good for export and attribution, not for
        recording new spans."""
        tracer = cls.__new__(cls)
        tracer.env = None
        tracer.sample_every = state["sample_every"]
        tracer.label = state["label"]
        tracer.requests_seen = state["requests_seen"]
        tracer.requests_sampled = state["requests_sampled"]
        tracer.spans = {}
        next_span_id = 0
        for trace_id, span_rows in state["traces"]:
            spans = []
            for (span_id, parent_id, name, category, component, start,
                 end, annotations) in span_rows:
                spans.append(Span(
                    tracer, trace_id, span_id, parent_id, name,
                    category, component, start, end=end,
                    annotations=annotations))
                next_span_id = max(next_span_id, span_id)
            tracer.spans[trace_id] = spans
        tracer._next_span_id = next_span_id
        tracer._pending = _NO_PENDING
        return tracer


def install_tracer(cluster_or_env: Any, sample_every: int = 1,
                   label: str = "") -> Tracer:
    """Attach a tracer to a cluster (or bare environment) and return it.

    This is the explicit opt-in: components find the tracer at
    ``env.tracer`` and instrument only the requests it samples.
    """
    env = getattr(cluster_or_env, "env", cluster_or_env)
    tracer = Tracer(env, sample_every=sample_every, label=label)
    env.tracer = tracer
    return tracer
