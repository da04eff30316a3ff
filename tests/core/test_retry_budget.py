"""The per-front-end retry budget on the dispatch path: retries capped
to a fraction of fresh traffic, legacy unlimited behaviour preserved.

The cluster is built from workers that accept every envelope and never
answer within the dispatch timeout, so every attempt times out and the
retry path is exercised deterministically — including the on-demand
spawns the manager performs mid-dispatch, which produce more equally
stuck workers.
"""

from repro.core.fabric import SNSFabric
from repro.degrade.guards import RetryBudget
from repro.sim.cluster import Cluster
from repro.tacc.registry import WorkerRegistry

from tests.core.conftest import (
    DispatchService,
    TestWorker,
    fast_config,
    make_fabric,
    make_record,
)


class StuckWorker(TestWorker):
    """Accepts everything, answers nothing the dispatcher will wait
    for (a 300 s compute against a 1 s dispatch timeout)."""

    __test__ = False
    worker_type = "test-worker"
    cost_s = 300.0


def budget_config(**overrides):
    defaults = dict(
        dispatch_deadline_s=8.0, dispatch_timeout_s=1.0,
    )
    defaults.update(overrides)
    return fast_config(**defaults)


def make_stuck_fabric(config):
    cluster = Cluster(seed=7)
    cluster.add_nodes(8)
    registry = WorkerRegistry()
    registry.register_class(StuckWorker)
    fabric = SNSFabric(cluster, registry, config, DispatchService())
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    cluster.run(until=2.0)
    return fabric


def test_no_budget_configured_means_legacy_unlimited_retries():
    fabric = make_stuck_fabric(budget_config())
    frontend = fabric.alive_frontends()[0]
    assert frontend.stub.retry_budget is None
    response = fabric.cluster.env.run(until=fabric.submit(make_record()))
    assert response.status == "fallback"
    assert frontend.stub.retries >= 1  # retried without a budget check
    assert frontend.stub.retry_budget_denials == 0


def test_budget_wired_from_config():
    fabric = make_fabric(config=budget_config(retry_budget_ratio=0.1,
                                              retry_budget_cap=5.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=2.0)
    stub = fabric.alive_frontends()[0].stub
    assert isinstance(stub.retry_budget, RetryBudget)
    assert stub.retry_budget.ratio == 0.1
    assert stub.retry_budget.cap == 5.0


def test_exhausted_budget_denies_the_retry_and_fails_over():
    """Ratio 0 with cap 1: one retry ever.  Once it is spent, a failed
    first attempt must fail over instead of re-offering load to a
    cluster that is already saturated."""
    fabric = make_stuck_fabric(
        budget_config(retry_budget_ratio=0.0, retry_budget_cap=1.0,
                      dispatch_attempts=2))
    frontend = fabric.alive_frontends()[0]
    env = fabric.cluster.env
    first = env.run(until=fabric.submit(make_record()))
    assert first.status == "fallback"
    assert frontend.stub.retries == 1  # spent the only token
    start = env.now
    second = env.run(until=fabric.submit(make_record(index=1)))
    assert second.status == "fallback"
    assert frontend.stub.retries == 1  # no second retry happened
    assert frontend.stub.retry_budget.denials == 1
    assert frontend.stub.retry_budget_denials == 1
    # denied retry = one timed-out attempt, no backoff-and-retry cycle
    assert env.now - start < 2.0


def test_generous_budget_never_denies():
    fabric = make_stuck_fabric(
        budget_config(retry_budget_ratio=1.0, retry_budget_cap=10.0))
    frontend = fabric.alive_frontends()[0]
    env = fabric.cluster.env
    for index in range(3):
        response = env.run(until=fabric.submit(make_record(index=index)))
        assert response.status == "fallback"
    assert frontend.stub.retries == 3  # one retry per dispatch
    assert frontend.stub.retry_budget.denials == 0
