"""The shard protocol: picklable units of independent simulation work.

A **shard** is one self-contained simulation the fan-out runner can
execute anywhere: one experiment grid point, one chaos campaign run,
one benchmark seed.  A :class:`ShardSpec` names the unit (the id doubles
as the merge key), points at a **module-level** entry function (so the
spec pickles by reference under both ``fork`` and ``spawn`` start
methods), and carries its arguments.  Results come back as
:class:`ShardResult` rows collected into a :class:`SweepResult`, always
in spec order — merge is order-independent by construction, which is
what makes ``--jobs N`` output byte-identical to ``--jobs 1``.

Per-shard seeds come from :func:`repro.sim.rng.derive_seed`, the same
SHA-256 derivation behind every named RNG stream (see
:mod:`repro.chaos.batch`): a shard's seed is a function of the master
seed and the shard's name only, never of which worker process ran it or
in what order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ShardSpec", "ShardResult", "SweepResult", "FanoutError"]


class FanoutError(RuntimeError):
    """A sharded sweep failed beyond what the caller tolerates."""


@dataclass(frozen=True)
class ShardSpec:
    """One independent unit of work.

    ``fn`` must be importable (module-level); closures and lambdas do
    not survive pickling into a worker process.  ``timeout_s`` and
    ``retries`` override the pool-wide defaults for this shard only.
    """

    shard_id: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    timeout_s: Optional[float] = None
    retries: Optional[int] = None


@dataclass
class ShardResult:
    """What one shard produced (or how it failed).

    ``elapsed_s`` is wall-clock bookkeeping for progress reporting and
    benchmarks; merge adapters must never fold it into deterministic
    output.
    """

    shard_id: str
    index: int
    ok: bool
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    elapsed_s: float = 0.0
    #: serialized tracer states shipped from the worker process
    #: (:meth:`repro.obs.Tracer.state`); empty when tracing is off or
    #: the shard ran in-process (ambient capture already has them).
    tracer_states: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class SweepResult:
    """All shards of one sweep, in spec order, plus the harvest.

    The runner practices the paper's graceful degradation: a crashed or
    timed-out shard is reported, not fatal, and :attr:`harvest` says
    exactly what fraction of the sweep's data survived (harvest/yield
    framing of Section 2.3.1 applied to the runner itself).
    """

    results: List[ShardResult]
    jobs: int = 1
    #: peak number of simultaneously live worker processes (parent-side
    #: accounting; 1 for in-process execution of non-empty sweeps).
    max_inflight: int = 0

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def completed(self) -> int:
        return sum(1 for result in self.results if result.ok)

    @property
    def failed(self) -> List[ShardResult]:
        return [result for result in self.results if not result.ok]

    @property
    def harvest(self) -> float:
        """Fraction of shards that produced data (1.0 when empty)."""
        if not self.results:
            return 1.0
        return self.completed / len(self.results)

    @property
    def complete(self) -> bool:
        return self.harvest == 1.0

    def values(self) -> List[Any]:
        """Every shard's value, in spec order, failures raised.

        For sweeps whose callers need all points (experiment tables),
        partial data is an error: raise :class:`FanoutError` naming the
        failed shards instead of silently assembling a gappy table.
        """
        if not self.complete:
            raise FanoutError(
                f"{len(self.failed)}/{self.total} shard(s) failed "
                f"(harvest {self.harvest:.3f}): " + "; ".join(
                    f"{result.shard_id}: {result.error}"
                    for result in self.failed))
        return [result.value for result in self.results]
