"""Pool mechanics: ordering, bounded in-flight, crash isolation,
timeout, retry, and the harvest accounting (ISSUE 5 tentpole).

Shard entry points live at module level so they pickle by reference;
the pool's fork start method also lets them see test-module state.
"""

import os
import time

import pytest

from repro.fanout import (
    FanoutError,
    ShardSpec,
    run_sharded,
)


def _double(value):
    return value * 2


def _double_after(value, delay_s):
    time.sleep(delay_s)
    return value * 2


def _crash():
    os._exit(13)


def _raise(message):
    raise ValueError(message)


def _sleep_forever():
    time.sleep(60.0)


def _flaky(marker_path, value):
    """Fails on the first attempt, succeeds once the marker exists."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as handle:
            handle.write("attempted")
        os._exit(7)
    return value


def _specs(values, fn=_double):
    return [ShardSpec(shard_id=f"s{index}", fn=fn, args=(value,))
            for index, value in enumerate(values)]


def test_results_come_back_in_spec_order():
    # later shards finish first (earlier ones sleep longer)
    specs = [
        ShardSpec(shard_id=f"s{index}", fn=_double_after,
                  args=(index, 0.05 * (3 - index)))
        for index in range(4)
    ]
    sweep = run_sharded(specs, jobs=4)
    assert sweep.complete
    assert sweep.values() == [0, 2, 4, 6]
    assert [result.shard_id for result in sweep.results] == \
        ["s0", "s1", "s2", "s3"]


def test_serial_matches_pool():
    specs = _specs(range(6))
    serial = run_sharded(specs, jobs=1)
    pooled = run_sharded(specs, jobs=3)
    assert serial.values() == pooled.values() == [0, 2, 4, 6, 8, 10]
    assert serial.jobs == 1 and pooled.jobs == 3


def test_inflight_bounded_by_jobs():
    sweep = run_sharded(_specs(range(8)), jobs=2)
    assert 1 <= sweep.max_inflight <= 2


def test_crashed_shard_is_isolated():
    specs = _specs(range(3))
    specs.insert(1, ShardSpec(shard_id="boom", fn=_crash))
    sweep = run_sharded(specs, jobs=2)
    assert not sweep.complete
    assert sweep.completed == 3 and len(sweep.failed) == 1
    assert sweep.harvest == pytest.approx(0.75)
    failed = sweep.results[1]
    assert failed.shard_id == "boom" and not failed.ok
    assert "crashed" in failed.error and "13" in failed.error
    assert [result.value for result in sweep.results if result.ok] \
        == [0, 2, 4]
    with pytest.raises(FanoutError) as excinfo:
        sweep.values()
    assert "boom" in str(excinfo.value)


def test_exception_in_shard_reports_error():
    specs = [ShardSpec(shard_id="bad", fn=_raise, args=("kaput",))]
    sweep = run_sharded(specs, jobs=2)
    assert not sweep.results[0].ok
    assert "kaput" in sweep.results[0].error


def test_exception_in_serial_shard_reports_error():
    specs = [ShardSpec(shard_id="bad", fn=_raise, args=("kaput",))]
    sweep = run_sharded(specs, jobs=1)
    assert not sweep.results[0].ok
    assert "kaput" in sweep.results[0].error
    assert sweep.harvest == 0.0


def test_timeout_kills_the_shard():
    specs = [ShardSpec(shard_id="hang", fn=_sleep_forever,
                       timeout_s=0.5)]
    sweep = run_sharded(specs, jobs=2)
    assert not sweep.results[0].ok
    assert "timed out" in sweep.results[0].error


def test_retry_recovers_a_flaky_shard(tmp_path):
    marker = str(tmp_path / "attempted")
    specs = [ShardSpec(shard_id="flaky", fn=_flaky,
                       args=(marker, 42), retries=1)]
    sweep = run_sharded(specs, jobs=2)
    assert sweep.complete
    assert sweep.values() == [42]
    assert sweep.results[0].attempts == 2


def test_progress_callback_sees_every_shard():
    seen = []

    def progress(result, n_done, n_total):
        seen.append((result.shard_id, n_done, n_total))

    run_sharded(_specs(range(3)), jobs=2, progress=progress)
    assert [entry[1] for entry in seen] == [1, 2, 3]
    assert all(entry[2] == 3 for entry in seen)
    assert {entry[0] for entry in seen} == {"s0", "s1", "s2"}


def test_empty_specs():
    sweep = run_sharded([], jobs=4)
    assert sweep.complete and sweep.values() == []
    assert sweep.harvest == 1.0
