"""Unit tests for Component life cycle, SNSFabric edges, FrontEnd
mechanics, and SNSConfig validation."""

import math

import pytest

from repro.core.config import ConfigError, SNSConfig
from repro.core.component import Component
from repro.core.fabric import FabricError
from repro.sim.cluster import Cluster
from repro.sim.kernel import Interrupt

from tests.core.conftest import fast_config, make_fabric, make_record


class TickerComponent(Component):
    """Minimal concrete component for life-cycle tests."""

    kind = "ticker"

    def __init__(self, cluster, node, name):
        super().__init__(cluster, node, name)
        self.ticks = 0

    def _start_processes(self):
        self.spawn(self._tick())

    def _tick(self):
        while True:
            yield self.env.timeout(1.0)
            self.ticks += 1


def make_component():
    cluster = Cluster(seed=1)
    node = cluster.add_node("n0")
    return cluster, TickerComponent(cluster, node, "ticker-1")


# -- component life cycle ----------------------------------------------------

def test_start_attaches_and_runs():
    cluster, component = make_component()
    component.start()
    assert component.alive
    assert "ticker-1" in component.node.components
    cluster.run(until=5.5)
    assert component.ticks == 5


def test_double_start_rejected():
    cluster, component = make_component()
    component.start()
    with pytest.raises(RuntimeError):
        component.start()


def test_kill_detaches_stops_and_is_idempotent():
    cluster, component = make_component()
    component.start()
    cluster.run(until=3.5)
    component.kill()
    assert not component.alive
    assert "ticker-1" not in component.node.components
    ticks_at_death = component.ticks
    cluster.run(until=10.0)
    assert component.ticks == ticks_at_death
    component.kill()  # second kill is a no-op
    cluster.run(until=20.0)
    assert not component.alive
    assert component.ticks == ticks_at_death


def test_spawn_prunes_dead_processes():
    cluster, component = make_component()
    component.start()

    def one_shot(env):
        yield env.timeout(0.1)

    for _ in range(200):
        component.spawn(one_shot(cluster.env))
        cluster.run(until=cluster.env.now + 0.2)
    assert len(component._procs) < 100


def test_spawn_sweep_is_amortised_and_kill_hits_exactly_the_live():
    """With many long-lived processes alive, spawn must not rebuild the
    list every time: it sweeps when the list has doubled since the last
    sweep's survivors."""
    cluster, component = make_component()
    component.start()
    env = cluster.env
    interrupted = []

    def sleeper(index, duration):
        try:
            yield env.timeout(duration)
        except Interrupt:
            interrupted.append(index)
            raise

    for index in range(300):           # alive for the whole test
        component.spawn(sleeper(index, 1e6))
    sweeps = 0
    for index in range(300, 1300):     # gone within the second
        before = component._procs
        component.spawn(sleeper(index, 0.5))
        sweeps += component._procs is not before
        cluster.run(until=env.now + 1.0)
    assert sweeps <= 5
    assert len(component._procs) <= 2 * 302
    alive = [process for process in component._procs if process.is_alive]
    assert len(alive) == 301           # the ticker and the sleepers
    component.kill()
    cluster.run(until=env.now + 1.0)
    assert interrupted == list(range(300))
    assert not any(process.is_alive for process in alive)
    assert all(process.ok for process in alive)   # absorbed, not failed
    assert component._procs == []


def test_spawned_process_failure_other_than_interrupt_still_surfaces():
    cluster, component = make_component()
    component.start()

    def broken():
        yield cluster.env.timeout(0.1)
        raise ValueError("bug")

    component.spawn(broken())
    with pytest.raises(ValueError):
        cluster.run(until=1.0)


# -- fabric edges -----------------------------------------------------------------

def test_fabric_double_manager_rejected(fabric):
    fabric.start_manager()
    with pytest.raises(FabricError):
        fabric.start_manager()


def test_fabric_unknown_worker_type_rejected(fabric):
    with pytest.raises(FabricError):
        fabric.spawn_worker("no-such-type")


def test_fabric_placement_on_down_node_rejected(fabric):
    node = fabric.cluster.nodes["node0"]
    node.crash()
    with pytest.raises(FabricError):
        fabric.start_frontend(node=node)


def test_fabric_submit_with_no_frontends_never_fires(fabric):
    reply = fabric.submit(make_record())
    fabric.cluster.run(until=5.0)
    assert not reply.triggered


def test_fabric_restart_manager_noop_when_alive(fabric):
    fabric.start_manager()
    assert fabric.restart_manager() is False
    assert fabric.manager_restarts == 0


def test_fabric_worker_names_are_unique(fabric):
    fabric.boot(n_frontends=0, initial_workers={"test-worker": 3})
    names = list(fabric.workers)
    assert len(names) == len(set(names))
    assert all(name.startswith("test-worker.") for name in names)


# -- front end mechanics -------------------------------------------------------------

def test_dead_frontend_swallows_requests(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    frontend = next(iter(fabric.frontends.values()))
    frontend.kill()
    reply = frontend.submit(make_record())
    fabric.cluster.run(until=10.0)
    assert not reply.triggered


def test_thread_pool_bounds_concurrency():
    fabric = make_fabric(config=fast_config(frontend_threads=2,
                                            dispatch_timeout_s=30.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    frontend = next(iter(fabric.frontends.values()))
    for index in range(10):
        frontend.submit(make_record(index))
    fabric.cluster.run(until=fabric.cluster.env.now + 0.2)
    assert frontend.active_requests <= 2


# -- config validation ------------------------------------------------------------------

@pytest.mark.parametrize("overrides", [
    {"beacon_interval_s": 0.0},
    {"spawn_threshold": 0.0},
    {"spawn_damping_s": -1.0},
    {"dispatch_timeout_s": math.nan},
    {"worker_queue_capacity": -1},
    {"dispatch_attempts": 0},
    {"frontend_threads": 0},
])
def test_config_validation_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        SNSConfig(**overrides).validate()


@pytest.mark.parametrize("overrides, field", [
    ({"manager_backend": "raft"}, "manager_backend"),
    ({"manager_backend": None}, "manager_backend"),
    ({"profile_backend": "bogus"}, "profile_backend"),
    ({"service_backend": "bogus"}, "service_backend"),
    ({"beacon_interval_s": 0.0}, "beacon_interval_s"),
    ({"report_interval_s": -1.0}, "report_interval_s"),
    ({"spawn_threshold": 0.0}, "spawn_threshold"),
    ({"spawn_damping_s": -1.0}, "spawn_damping_s"),
    ({"use_overflow_pool": 1}, "use_overflow_pool"),
    ({"lottery_gamma": math.nan}, "lottery_gamma"),
    ({"load_metric": "vibes"}, "load_metric"),
    ({"balancing": "anarchic"}, "balancing"),
    ({"dispatch_attempts": 0}, "dispatch_attempts"),
    ({"routing_policy": "nonsense"}, "routing_policy"),
    # a spec that is not a string used to escape as AttributeError
    ({"routing_policy": None}, "routing_policy"),
    ({"routing_policy": 3}, "routing_policy"),
    ({"routing_policy": "ewma+eject+eject"}, "routing_policy"),
    ({"estimate_queue_deltas": "yes"}, "estimate_queue_deltas"),
    ({"shed_expired_requests": 1}, "shed_expired_requests"),
    ({"use_overflow_pool": None}, "use_overflow_pool"),
    ({"load_metric": None}, "load_metric"),
    ({"balancing": None}, "balancing"),
    ({"service_backend": ""}, "service_backend"),
    ({"dispatch_deadline_s": 0.0}, "dispatch_deadline_s"),
    ({"dispatch_timeout_s": 0.0}, "dispatch_timeout_s"),
    ({"dispatch_attempts": -1}, "dispatch_attempts"),
    ({"dispatch_timeout_s": math.nan}, "dispatch_timeout_s"),
    ({"dispatch_deadline_s": -1.0}, "dispatch_deadline_s"),
    ({"admission_max_backlog_s": -1.0}, "admission_max_backlog_s"),
    ({"admission_exit_backlog_s": 1.0}, "admission_exit_backlog_s"),
    ({"admission_max_backlog_s": 1.0, "admission_exit_backlog_s": 2.0},
     "admission_exit_backlog_s"),
    ({"retry_budget_ratio": -0.1}, "retry_budget_ratio"),
    ({"retry_budget_cap": 0.5}, "retry_budget_cap"),
    ({"origin_breaker_failures": 0}, "origin_breaker_failures"),
    ({"degrade_util_target": math.inf}, "degrade_util_target"),
    ({"degrade_util_target": math.nan}, "degrade_util_target"),
    ({"degrade_util_target": -1.0}, "degrade_util_target"),
    ({"degrade_util_target": "high"}, "degrade_util_target"),
    ({"degrade_util_target": 0.0}, "degrade_util_target"),
    ({"degrade_util_target": None}, "degrade_util_target"),
    ({"degrade_util_target": True}, "degrade_util_target"),
    ({"frontend_threads": 0}, "frontend_threads"),
    # NaN, infinity and negative values: each used to pass validate()
    ({"dispatch_timeout_s": -1.0}, "dispatch_timeout_s"),
    ({"dispatch_timeout_s": math.inf}, "dispatch_timeout_s"),
    ({"worker_timeout_s": math.nan}, "worker_timeout_s"),
    ({"worker_timeout_s": -1.0}, "worker_timeout_s"),
    ({"worker_timeout_s": math.inf}, "worker_timeout_s"),
    ({"reap_after_s": math.nan}, "reap_after_s"),
    ({"reap_after_s": -1.0}, "reap_after_s"),
    ({"reap_after_s": math.inf}, "reap_after_s"),
    ({"lottery_gamma": -1.0}, "lottery_gamma"),
    ({"lottery_gamma": math.inf}, "lottery_gamma"),
    ({"frontend_connection_overhead_s": -0.001},
     "frontend_connection_overhead_s"),
    ({"frontend_connection_overhead_s": math.nan},
     "frontend_connection_overhead_s"),
    ({"worker_queue_capacity": -1}, "worker_queue_capacity"),
    ({"worker_queue_capacity": 2.5}, "worker_queue_capacity"),
    ({"worker_queue_capacity": math.inf}, "worker_queue_capacity"),
    ({"beacon_interval_s": math.nan}, "beacon_interval_s"),
    ({"beacon_interval_s": math.inf}, "beacon_interval_s"),
    ({"report_interval_s": math.inf}, "report_interval_s"),
    ({"spawn_threshold": math.inf}, "spawn_threshold"),
    ({"spawn_damping_s": math.nan}, "spawn_damping_s"),
    ({"manager_self_deposition": "yes"}, "manager_self_deposition"),
    ({"retry_budget_cap": math.nan}, "retry_budget_cap"),
    ({"dispatch_attempts": 2.5}, "dispatch_attempts"),
    ({"dispatch_deadline_s": math.nan}, "dispatch_deadline_s"),
    ({"dispatch_deadline_s": math.inf}, "dispatch_deadline_s"),
    ({"dispatch_attempts": None}, "dispatch_attempts"),
    ({"dispatch_timeout_s": None}, "dispatch_timeout_s"),
    ({"dispatch_deadline_s": True}, "dispatch_deadline_s"),
    ({"frontend_threads": math.inf}, "frontend_threads"),
    ({"admission_max_backlog_s": math.nan}, "admission_max_backlog_s"),
    ({"admission_max_backlog_s": math.inf}, "admission_max_backlog_s"),
    ({"admission_max_backlog_s": 1.0, "admission_exit_backlog_s": math.nan},
     "admission_exit_backlog_s"),
    ({"retry_budget_ratio": math.nan}, "retry_budget_ratio"),
    ({"retry_budget_ratio": math.inf}, "retry_budget_ratio"),
    ({"retry_budget_cap": math.inf}, "retry_budget_cap"),
    ({"origin_breaker_failures": 1.5}, "origin_breaker_failures"),
    ({"degrade_util_target": -math.inf}, "degrade_util_target"),
])
def test_config_errors_name_the_field_and_the_value(overrides, field):
    with pytest.raises(ConfigError) as raised:
        SNSConfig(**overrides).validate()
    assert field in raised.value.fields
    assert f"{field}={overrides[field]!r}" in str(raised.value)


def test_config_validate_returns_self():
    config = SNSConfig()
    assert config.validate() is config
