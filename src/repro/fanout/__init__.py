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

from repro.fanout.merge import merge_latency, sum_counters
from repro.fanout.pool import run_sharded
from repro.fanout.shard import (
    FanoutError,
    ShardResult,
    ShardSpec,
    SweepResult,
)
from repro.fanout.timeshard import (
    DriftReport,
    ReplaySpec,
    ShardedReplayResult,
    WindowResult,
    drift_check,
    replay_serial,
    replay_sharded,
    window_edges,
)

__all__ = [
    "DriftReport",
    "FanoutError",
    "ReplaySpec",
    "ShardResult",
    "ShardSpec",
    "ShardedReplayResult",
    "SweepResult",
    "WindowResult",
    "drift_check",
    "merge_latency",
    "replay_serial",
    "replay_sharded",
    "run_sharded",
    "sum_counters",
    "window_edges",
]
