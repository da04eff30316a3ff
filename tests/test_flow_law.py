"""The front end's flow law: every request a client sends is answered
exactly once.

Over one unit of each TranSend-path `stack` workload (the call-budget
scale, ~1500 requests each at seed 1997), and over one fabric whose
admission control sheds, two conservation laws must hold on counters
the program already keeps:

* at the client, ``submitted == completed + failed`` (the playback
  engine's aggregate);
* at the front ends, ``Σ requests_received == Σ (responses_sent +
  shed) == submitted`` — a request is either answered by its handler or
  refused at admission, never lost and never answered twice.
"""

import dataclasses

import pytest

from benchmarks.stack import harness
from benchmarks.stack.workloads import (DISPATCH_SETTINGS, WORKLOADS,
                                        _fabric_deployment)
from repro.core.config import SNSConfig
from repro.experiments._harness import build_bench_fabric

SEED = 1997
SCALE = 0.05


def build_shedding(seed, _scale):
    """`jpeg_dispatch`'s fixed pool behind front ends with few threads
    and a zero-backlog admission threshold: every arrival that finds
    the pool busy is shed."""
    fabric = build_bench_fabric(n_nodes=12, seed=seed, config=SNSConfig(
        **{**DISPATCH_SETTINGS, "frontend_threads": 4},
        spawn_threshold=1e9, admission_max_backlog_s=0.0))
    return _fabric_deployment(fabric)


CASES = {
    "jpeg_dispatch": WORKLOADS["jpeg_dispatch"],
    "overload_ramp": WORKLOADS["overload_ramp"],
    "transend_mix": WORKLOADS["transend_mix"],
    "admission_shed": dataclasses.replace(WORKLOADS["jpeg_dispatch"],
                                          build=build_shedding),
}


def run_observed(workload, monkeypatch):
    """One `run_unit` of ``workload``, returning the unit, the playback
    engine that drove it and the fabric it drove."""
    engines, fabrics = [], []

    class Engine(harness.PlaybackEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    def build(seed, scale):
        deployment = workload.build(seed, scale)
        owner = deployment.submit.__self__  # SNSFabric, or TranSend
        fabrics.append(getattr(owner, "fabric", owner))
        return deployment

    monkeypatch.setattr(harness, "PlaybackEngine", Engine)
    unit = harness.run_unit(dataclasses.replace(workload, build=build),
                            SEED, SCALE, probe=False)
    return unit, engines[0], fabrics[0]


@pytest.mark.parametrize("case", list(CASES))
def test_every_request_is_answered_or_shed_exactly_once(case,
                                                        monkeypatch):
    unit, engine, fabric = run_observed(CASES[case], monkeypatch)
    stats = engine.stats
    assert stats.submitted == unit.submitted
    assert stats.submitted == stats.completed + stats.failed
    frontends = list(fabric.frontends.values())
    received = sum(frontend.requests_received for frontend in frontends)
    answered = sum(frontend.responses_sent for frontend in frontends)
    shed = sum(frontend.shed for frontend in frontends)
    assert received == answered + shed == stats.submitted
    if case == "admission_shed":
        assert shed > 0
