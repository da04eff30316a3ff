"""Process-level tracing opt-in for experiments that build their own
clusters.

``install_tracer`` works when the caller owns the :class:`Cluster`,
but the CLI's experiments (``run endtoend`` etc.) construct clusters
internally — sometimes several, one per experiment arm.  The
:func:`capture_traces` context manager arms a process-global hook that
:class:`~repro.sim.cluster.Cluster` consults at construction time:
while the context is active, every new cluster gets a tracer installed
(with the requested sampling rate) and the tracer is collected so the
caller can export or attribute all arms afterwards.

Outside the context manager the hook is ``None`` and cluster
construction is untouched — this is the same strictly-opt-in guarantee
as the rest of the package.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.trace import Tracer, install_tracer

#: labels attach_to_new_cluster assigned automatically ("cluster-3");
#: rebuilt fan-out tracers with such labels get renumbered to their
#: position in the parent's capture list.
_AUTO_LABEL = re.compile(r"cluster-\d+\Z")

#: while non-None: ``{"sample_every": int, "tracers": list}`` —
#: consulted by Cluster.__init__ via
#: :func:`attach_to_new_cluster`.
_ACTIVE: Optional[Dict[str, Any]] = None


def tracing_settings() -> Optional[Dict[str, Any]]:
    """The active capture settings, or None when tracing is off."""
    if _ACTIVE is None:
        return None
    return {"sample_every": _ACTIVE["sample_every"]}


def attach_to_new_cluster(cluster: Any) -> Optional[Tracer]:
    """Called by ``Cluster.__init__``; installs and records a tracer
    iff a :func:`capture_traces` context is active."""
    if _ACTIVE is None:
        return None
    index = len(_ACTIVE["tracers"]) + 1
    tracer = install_tracer(
        cluster,
        sample_every=_ACTIVE["sample_every"],
        label=f"cluster-{index}")
    _ACTIVE["tracers"].append(tracer)
    return tracer


def reset_capture() -> None:
    """Forget any inherited capture state.

    Fan-out worker processes forked mid-``capture_traces`` inherit the
    parent's hook *and* its accumulated tracer list; they must start
    from a clean slate (and open their own capture) so shipped spans
    are exactly the shard's own.
    """
    global _ACTIVE
    _ACTIVE = None


def absorb_tracer_states(states: List[Dict[str, Any]]) -> List[Tracer]:
    """Merge serialized shard tracers into the active capture.

    ``states`` must already be in deterministic (shard) order.  Each is
    rebuilt detached (:meth:`Tracer.from_state`); automatically assigned
    ``cluster-N`` labels are renumbered to the tracer's position in the
    parent's list, which makes the merged capture — and hence the
    exported trace file — byte-identical to a serial in-process run.
    Returns the rebuilt tracers (also appended to the capture when one
    is active).
    """
    rebuilt = []
    for state in states:
        tracer = Tracer.from_state(state)
        if _ACTIVE is not None:
            if tracer.label and _AUTO_LABEL.fullmatch(tracer.label):
                tracer.label = f"cluster-{len(_ACTIVE['tracers']) + 1}"
            _ACTIVE["tracers"].append(tracer)
        rebuilt.append(tracer)
    return rebuilt


@contextmanager
def capture_traces(sample_every: int = 1) -> Iterator[List[Tracer]]:
    """Trace every cluster built inside the ``with`` block.

    Yields the (initially empty) list that accumulates one tracer per
    cluster; read it after the block finishes::

        with capture_traces(sample_every=10) as tracers:
            run_endtoend(config)
        export_chrome_trace(tracers, "trace.json")

    Nesting is rejected — nested captures would silently steal each
    other's tracers.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("capture_traces() does not nest")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    state: Dict[str, Any] = {
        "sample_every": sample_every,
        "tracers": [],
    }
    _ACTIVE = state
    try:
        yield state["tracers"]
    finally:
        _ACTIVE = None
