"""Supervisor behavior: the three detectors, the restart executor's
guard rails (backoff, budget, flap quarantine), and rejuvenation."""

import dataclasses
import math

import pytest

from repro.core.fabric import FabricError
from repro.obs import capture_traces
from repro.obs.export import chrome_trace_events
from repro.recovery import RecoveryPolicy
from repro.recovery.policy import RESTART_BUDGET
from repro.recovery.supervisor import Supervisor
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from tests.core.conftest import fast_config, make_fabric, make_record
from tests.recovery.conftest import boot_fabric


def boot_supervised(policy=None, workers=3, n_nodes=8, seed=7,
                    config=None):
    # reaping disabled: these tests watch the supervisor's restarts and
    # must not have the manager's idle-reap policy culling the workers
    fabric = make_fabric(n_nodes=n_nodes, seed=seed,
                         config=config or fast_config(
                             reap_after_s=100_000.0))
    fabric.start_manager()
    fabric.start_frontend()
    for _ in range(workers):
        fabric.spawn_worker("test-worker")
    supervisor = fabric.start_supervisor(policy)
    fabric.cluster.run(until=2.0)
    return fabric, supervisor


def drive_traffic(fabric, rate_rps, duration_s, timeout_s=10.0):
    env = fabric.cluster.env
    engine = PlaybackEngine(
        env, fabric.submit,
        rng=RandomStreams(fabric.cluster.streams.master_seed).stream(
            "test:playback"),
        timeout_s=timeout_s)
    env.process(engine.constant_rate(
        rate_rps, duration_s, [make_record(i) for i in range(10)]))
    return engine


def inject(supervisor, stub, kind):
    """Record the injection in the ledger, then flip the gray switch."""
    supervisor.ledger.inject(kind, stub.name)
    now = supervisor.env.now
    if kind == "hang":
        stub.gray.hang(now)
    elif kind == "zombie":
        stub.gray.zombify(now)
    elif kind == "fail-slow":
        stub.gray.fail_slow(6.0, now)
    elif kind == "corrupt-output":
        stub.gray.corrupt_output(now)
    else:
        raise AssertionError(kind)


def alive_on(fabric, node):
    return [stub for stub in fabric.alive_workers()
            if stub.node is node]


# -- detector 1: end-to-end probes -----------------------------------------------


def test_probe_detects_and_heals_hung_worker():
    fabric, supervisor = boot_supervised()
    victim = fabric.workers["test-worker.1"]
    inject(supervisor, victim, "hang")
    fabric.cluster.run(until=20.0)

    assert not victim.alive
    case = supervisor.ledger.cases[0]
    assert case.detector == "probe"
    assert case.healed, case
    assert case.mttd > 0
    assert case.replacement in fabric.manager.workers
    assert supervisor.restarts == 1
    assert supervisor.ledger.false_alarms == []


def test_probe_slow_ratio_catches_moderate_fail_slow():
    """x6 inflation keeps probe replies inside the 1s timeout; the
    relative-slowness check is what notices."""
    fabric, supervisor = boot_supervised()
    victim = fabric.workers["test-worker.1"]
    inject(supervisor, victim, "fail-slow")
    fabric.cluster.run(until=20.0)

    case = supervisor.ledger.cases[0]
    assert case.detector == "probe"
    assert "nominal" in case.detail
    assert case.healed, case
    assert not victim.alive


def test_corrupt_output_is_a_one_strike_probe_failure():
    fabric, supervisor = boot_supervised()
    victim = fabric.workers["test-worker.1"]
    inject(supervisor, victim, "corrupt-output")
    fabric.cluster.run(until=10.0)

    case = supervisor.ledger.cases[0]
    assert case.detector == "probe-validate"
    assert case.healed, case
    assert supervisor.suspicions == 1
    assert supervisor.restarts == 1


# -- detector 2: RPC-timeout reports ---------------------------------------------


def test_rpc_timeouts_trigger_restart_without_probes():
    policy = RecoveryPolicy(probe_interval_s=3600.0)
    fabric, supervisor = boot_supervised(policy)
    victim = fabric.workers["test-worker.1"]
    inject(supervisor, victim, "zombie")
    drive_traffic(fabric, rate_rps=10.0, duration_s=15.0)
    fabric.cluster.run(until=30.0)

    case = supervisor.ledger.cases[0]
    assert case.detector == "rpc-timeout"
    assert "dispatch timeouts" in case.detail
    assert case.healed, case
    assert not victim.alive


# -- detector 3: peer-relative load outliers -------------------------------------


def test_load_outlier_detection_spots_the_backed_up_queue():
    policy = RecoveryPolicy(probe_interval_s=3600.0,
                            rpc_timeout_confirmations=10_000)
    fabric, supervisor = boot_supervised(policy)
    victim = fabric.workers["test-worker.1"]
    inject(supervisor, victim, "hang")
    drive_traffic(fabric, rate_rps=12.0, duration_s=20.0)
    fabric.cluster.run(until=35.0)

    case = supervisor.ledger.cases[0]
    assert case.detector == "load-outlier"
    assert "median" in case.detail
    assert case.healed, case
    assert not victim.alive


# -- guard rails: backoff, flap quarantine, restart budget -----------------------


def test_repeated_restarts_back_off_then_quarantine_the_node():
    fabric, supervisor = boot_supervised()
    node = fabric.workers["test-worker.1"].node

    for _ in range(3):
        stub = alive_on(fabric, node)[0]
        inject(supervisor, stub, "corrupt-output")
        fabric.cluster.run(until=fabric.cluster.env.now + 10.0)

    # 2nd and 3rd restarts on the node waited out exponential backoff
    assert supervisor.backoff_waits == 2
    assert node.quarantined
    assert supervisor.quarantined_nodes == [node.name]
    assert any("quarantined" in alert.message
               for alert in supervisor.pages())
    # the final replacement had to land somewhere else
    assert alive_on(fabric, node) == []
    assert all(case.healed for case in supervisor.ledger.cases)
    # an operator reboot clears the quarantine
    node.restart()
    assert not node.quarantined


def test_quarantined_node_excluded_from_placement():
    fabric = boot_fabric(workers=1)
    free = fabric.cluster.free_node()
    free.quarantine()
    chosen = fabric._place(None)
    assert chosen is not free
    free.restart()


def test_restart_budget_exhaustion_pages_instead_of_healing():
    fabric, supervisor = boot_supervised(workers=4)
    # earlier restarts, inside RESTART_BUDGET_WINDOW_S, leave room for two
    supervisor._restart_times = \
        [fabric.cluster.env.now] * (RESTART_BUDGET - 2)

    for index in (1, 2, 3):
        stub = fabric.workers[f"test-worker.{index}"]
        inject(supervisor, stub, "corrupt-output")
        fabric.cluster.run(until=fabric.cluster.env.now + 8.0)

    assert supervisor.restarts == 2
    assert supervisor.budget_denials >= 1
    assert any("restart budget exhausted" in alert.message
               for alert in supervisor.pages())
    # the third victim is left alone (and still sick) for the operator
    third = fabric.workers["test-worker.3"]
    assert third.alive and third.gray.corrupt
    assert len(supervisor.ledger.detected) == 2


def test_one_executor_for_workers_and_bricks():
    assert not hasattr(Supervisor, "_restart_brick")
    assert not hasattr(Supervisor, "_await_brick_heal")


def test_restart_that_loses_the_race_still_finishes_its_span():
    """A worker that dies during the backoff wait is the manager's to
    heal; the recovery span opened for it must still be closed, or the
    trace export silently drops the case."""
    with capture_traces() as tracers:
        fabric, supervisor = boot_supervised()
        env = fabric.cluster.env
        stub = fabric.workers["test-worker.1"]
        # a recent restart on the node forces a backoff wait
        supervisor._node_restarts[stub.node.name] = [env.now]
        supervisor._begin_restart(stub, "probe", "forced by the test")
        fabric.cluster.run(until=env.now + 0.01)
        stub.kill()
        fabric.cluster.run(until=env.now + 30.0)
    assert supervisor.backoff_waits == 1 and supervisor.restarts == 0
    assert stub.name not in supervisor._restarting
    (root,) = tracers[0].spans["aux-recovery-001"]
    assert root.finished
    assert root.annotations["heal"] == "superseded"
    assert any(event.get("args", {}).get("trace_id") == "aux-recovery-001"
               for event in chrome_trace_events(tracers))


# -- rejuvenation -----------------------------------------------------------------


def test_rejuvenation_cycles_oldest_idle_workers():
    policy = RecoveryPolicy(rejuvenation_interval_s=5.0)
    fabric, supervisor = boot_supervised(policy)
    fabric.cluster.run(until=13.0)

    assert supervisor.rejuvenations == 2
    assert [target for _, target in supervisor.ledger.rejuvenations] == \
        ["test-worker.1", "test-worker.2"]
    # proactive restarts never open fault cases or false alarms
    assert supervisor.ledger.cases == []
    assert supervisor.ledger.false_alarms == []
    assert len(fabric.alive_workers()) == 3


# -- wiring and policy hygiene ----------------------------------------------------


def test_supervisor_shares_the_manager_node():
    fabric, supervisor = boot_supervised()
    assert supervisor.node is fabric.manager.node


def test_second_supervisor_rejected():
    fabric, supervisor = boot_supervised()
    with pytest.raises(FabricError):
        fabric.start_supervisor()


def test_new_frontends_get_the_rpc_timeout_hook():
    fabric, supervisor = boot_supervised()
    late = fabric.start_frontend()
    assert late.stub.on_worker_timeout == supervisor.note_rpc_timeout


@pytest.mark.parametrize("overrides", [
    dict(probe_interval_s=0.0),
    dict(probe_confirmations=0),
    dict(rpc_timeout_confirmations=0),
    dict(outlier_ratio=0.5),
    dict(outlier_floor=-1.0),
    dict(probe_interval_s=-1.0),
    dict(probe_confirmations=2.5),
    dict(rpc_timeout_confirmations=1.5),
    dict(rejuvenation_interval_s=-1.0),
    dict(rejuvenation_interval_s=0.0),
] + [
    # NaN compares false with any floor: `probe_interval_s=nan` used to
    # pass, and `outlier_ratio=nan` silently turned outlier detection off;
    # a bool or a string is not a number
    {field.name: value} for field in dataclasses.fields(RecoveryPolicy)
    for value in (math.nan, math.inf, -math.inf, True, "1")
])
def test_policy_validation_rejects_bad_knobs(overrides):
    (name,) = overrides
    with pytest.raises(ValueError, match=name):
        RecoveryPolicy(**overrides).validate()


def test_policy_validation_accepts_the_sweep_backstop():
    """The policy sweep detunes supervision with huge finite values;
    no rejuvenation is None, not a number."""
    policy = RecoveryPolicy(rpc_timeout_confirmations=1000,
                            outlier_ratio=1e9, outlier_floor=1e9,
                            rejuvenation_interval_s=None)
    assert policy.validate() is policy
