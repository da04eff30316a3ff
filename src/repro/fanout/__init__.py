"""Deterministic multi-core fan-out for sweeps, campaigns, benchmarks.

The paper's thesis is that independent, stateless work scales linearly
when fanned out across nodes (Section 3; Table 2 measures it).  This
package applies that thesis to the reproduction itself: every sweep in
the repo — experiment grids, chaos campaign batches, multi-seed
benchmarks — is a list of independent simulations that previously ran
back-to-back on one core.  ``run_sharded`` shards them across worker
processes while keeping three guarantees:

* **Determinism.**  Per-shard seeds derive from the master seed and the
  shard id alone, and results merge in spec order
  regardless of completion order, so ``--jobs N`` output is
  byte-identical to ``--jobs 1`` — including merged span-trace files.
* **Graceful degradation.**  A crashing, raising, or timed-out shard is
  retried, then reported; the sweep completes with an explicit harvest
  fraction instead of sinking (the runner practices the harvest/yield
  stance the paper prescribes for giant-scale services).
* **Opt-in.**  ``jobs=1`` (the default everywhere) runs in-process with
  unchanged behaviour.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "merge": ("merge_latency", "sum_counters"),
    "pool": ("run_sharded",),
    "shard": ("FanoutError", "ShardResult", "ShardSpec", "SweepResult"),
})

__all__ = [
    "FanoutError",
    "ShardResult",
    "ShardSpec",
    "SweepResult",
    "merge_latency",
    "run_sharded",
    "sum_counters",
]
