"""The process-pool scale-out runner.

``run_sharded`` executes a list of :class:`~repro.fanout.shard.ShardSpec`
units either in-process (``jobs <= 1``, the default — nothing changes
without opt-in) or across ``jobs`` worker processes with bounded
in-flight shards.  Either way the returned
:class:`~repro.fanout.shard.SweepResult` lists results in **spec
order**, so merging is independent of completion order and parallel
output is byte-identical to serial output.

Failure policy is graceful degradation, the same harvest/yield stance
the paper takes for the services themselves (Section 2.3.1): a shard
that raises or crashes its process is *reported* — the sweep keeps
going, the result carries an explicit harvest fraction, and the caller
decides whether partial data is acceptable.  One sick simulation
cannot sink a campaign sweep.  A shard is run once, with no deadline:
every shard is a deterministic simulation, so a second attempt would
fail the same way.

Span tracing composes: while a :func:`repro.obs.capture_traces` context
is active in the parent, worker processes open their own capture, ship
serialized spans back inside the :class:`ShardResult`, and the parent
folds them into its capture **in shard order** — so ``--trace-out``
writes the same trace file at any ``--jobs``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.fanout.shard import ShardResult, ShardSpec, SweepResult
from repro.obs import runtime as obs_runtime

__all__ = ["run_sharded"]

ProgressFn = Callable[[ShardResult, int, int], None]


# -- the worker-process side ------------------------------------------------

def _shard_worker(spec: ShardSpec,
                  trace_settings: Optional[Dict[str, Any]],
                  conn) -> None:
    """Run one shard in a fresh process and ship the outcome back.

    Runs with a clean observability slate: a forked child inherits the
    parent's capture hook and tracer list, which must not leak into the
    shard's own capture.
    """
    try:
        obs_runtime.reset_capture()
        tracer_states: List[Dict[str, Any]] = []
        if trace_settings is not None:
            with obs_runtime.capture_traces(**trace_settings) as tracers:
                value = spec.fn(*spec.args, **dict(spec.kwargs))
            tracer_states = [tracer.state() for tracer in tracers]
        else:
            value = spec.fn(*spec.args, **dict(spec.kwargs))
        try:
            conn.send(("ok", value, tracer_states))
        except Exception as error:   # unpicklable result
            conn.send(("error",
                       f"result not transportable: "
                       f"{type(error).__name__}: {error}", []))
    except BaseException as error:
        try:
            conn.send(("error", "".join(traceback.format_exception_only(
                type(error), error)).strip(), []))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


# -- the parent side --------------------------------------------------------

def _context():
    methods = multiprocessing.get_all_start_methods()
    # fork is the cheap path (no re-import per shard) and keeps
    # monkeypatched state visible to shards; fall back where missing.
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def run_sharded(specs: Sequence[ShardSpec], jobs: int = 1, *,
                progress: Optional[ProgressFn] = None) -> SweepResult:
    """Execute independent shards, serially or across worker processes.

    ``jobs <= 1`` runs in-process (exceptions isolated per shard).
    ``jobs > 1`` keeps at most ``jobs`` worker processes in flight.
    ``progress`` is called once per finished shard (in completion
    order) with ``(result, n_done, n_total)``.
    """
    specs = list(specs)
    # jobs > 1 always takes the pool, even for a single shard: the
    # process boundary is what provides crash isolation.
    if jobs <= 1 or not specs:
        return _run_serial(specs, progress)
    return _run_pool(specs, jobs, progress)


def _run_serial(specs: List[ShardSpec],
                progress: Optional[ProgressFn]) -> SweepResult:
    results: List[ShardResult] = []
    for index, spec in enumerate(specs):
        start = time.perf_counter()
        try:
            value = spec.fn(*spec.args, **dict(spec.kwargs))
            result = ShardResult(spec.shard_id, index, True, value=value)
        except Exception as error:
            result = ShardResult(
                spec.shard_id, index, False,
                error="".join(traceback.format_exception_only(
                    type(error), error)).strip())
        result.elapsed_s = time.perf_counter() - start
        results.append(result)
        if progress is not None:
            progress(result, len(results), len(specs))
    return SweepResult(results=results, jobs=1,
                       max_inflight=1 if specs else 0)


def _run_pool(specs: List[ShardSpec], jobs: int,
              progress: Optional[ProgressFn]) -> SweepResult:
    context = _context()
    trace_settings = obs_runtime.tracing_settings()
    pending = list(enumerate(specs))
    pending.reverse()   # pop() keeps spec order
    # parent end of a shard's pipe -> (index, spec, process, started)
    inflight: Dict[Any, tuple] = {}
    results: Dict[int, ShardResult] = {}
    max_inflight = 0

    try:
        while pending or inflight:
            while pending and len(inflight) < jobs:
                index, spec = pending.pop()
                parent_conn, child_conn = context.Pipe(duplex=False)
                process = context.Process(
                    target=_shard_worker,
                    args=(spec, trace_settings, child_conn), daemon=True)
                process.start()
                child_conn.close()
                inflight[parent_conn] = (index, spec, process,
                                         time.perf_counter())
                max_inflight = max(max_inflight, len(inflight))
            # a shard's pipe turns ready when it sends its outcome or
            # when its process dies and the pipe closes
            for conn in multiprocessing.connection.wait(list(inflight)):
                index, spec, process, started = inflight.pop(conn)
                try:
                    kind, payload, tracer_states = conn.recv()
                except EOFError:
                    kind, payload, tracer_states = "crashed", None, []
                finally:
                    conn.close()
                process.join()
                if kind == "crashed":
                    payload = (f"worker crashed (exit code "
                               f"{process.exitcode})")
                ok = kind == "ok"
                result = ShardResult(
                    spec.shard_id, index, ok,
                    value=payload if ok else None,
                    error=None if ok else payload,
                    elapsed_s=time.perf_counter() - started,
                    tracer_states=tracer_states)
                results[index] = result
                if progress is not None:
                    progress(result, len(results), len(specs))
    finally:
        # an interrupted parent takes its live shards down with it
        for _index, _spec, process, _started in inflight.values():
            process.terminate()
            process.join()
        for conn in inflight:
            conn.close()

    ordered = [results[index] for index in sorted(results)]
    # fold shipped spans into the parent's capture, in shard order —
    # identical to what an in-process serial run would have recorded.
    if trace_settings is not None:
        for result in ordered:
            if result.tracer_states:
                obs_runtime.absorb_tracer_states(result.tracer_states)
    return SweepResult(results=ordered, jobs=jobs,
                       max_inflight=max_inflight)
