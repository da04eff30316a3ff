"""DegradableBenchService request paths and the brownout distiller's
cost model, level by level."""

from types import SimpleNamespace

import pytest

from repro.core.config import SNSConfig
from repro.core.fabric import FabricError
from repro.degrade.guards import CircuitBreaker
from repro.degrade.ladder import REDUCED_FIDELITY_PARAMS
from repro.degrade.service import (
    BrownoutJpegDistiller,
    DegradableBenchService,
)
from repro.distillers.jpeg import JpegDistiller
from repro.experiments._harness import build_bench_fabric
from repro.sim.rng import RandomStreams
from repro.tacc.content import Content, zero_payload
from repro.tacc.worker import TACCRequest
from repro.transend.service import TranSend
from repro.workload.trace import TraceRecord


def ladder_stub(level):
    """A stand-in controller pinned at one ladder level."""
    return SimpleNamespace(
        level=level,
        fidelity_reduced=level >= 1,
        serve_stale_active=level >= 2,
        relaxed_reads_active=level >= 3,
        priority_admission_active=level >= 4,
        deadline_shed_active=level >= 5,
    )


def make_fabric(**config_overrides):
    defaults = dict(frontend_connection_overhead_s=0.001,
                    service_backend="degradable")
    defaults.update(config_overrides)
    fabric = build_bench_fabric(
        n_nodes=6, seed=5, config=SNSConfig(**defaults))
    fabric.boot(n_frontends=1,
                initial_workers={JpegDistiller.worker_type: 2})
    fabric.cluster.run(until=2.0)
    return fabric


def submit(fabric, record):
    reply = fabric.submit(record)
    return fabric.cluster.env.run(until=reply)


def record(url="http://pics/a.jpg", size=10240, index=0,
           priority="interactive"):
    return TraceRecord(0.0, f"client{index}", url, "image/jpeg", size,
                       priority=priority)


def test_distill_then_fresh_cache_hit():
    fabric = make_fabric()
    first = submit(fabric, record())
    assert first.status == "ok" and first.path == "distilled"
    assert fabric.service.origin_fetches == 1
    second = submit(fabric, record())
    assert second.status == "ok" and second.path == "cache-hit"
    assert fabric.service.origin_fetches == 1  # original fetched once


def test_stale_entry_is_recomputed_without_a_controller():
    fabric = make_fabric()
    submit(fabric, record())
    env = fabric.cluster.env
    fabric.cluster.run(until=env.now + 3.0)  # past the 2 s fresh TTL
    response = submit(fabric, record())
    assert response.status == "ok" and response.path == "distilled"
    assert fabric.service.results.stale_hits == 1
    assert fabric.service.stale_served == 0


def test_serve_stale_level_answers_from_the_stale_entry():
    fabric = make_fabric()
    submit(fabric, record())
    fabric.service.degradation = ladder_stub(2)
    env = fabric.cluster.env
    fabric.cluster.run(until=env.now + 3.0)
    response = submit(fabric, record())
    assert response.status == "degraded"
    assert response.path == "serve-stale"
    assert response.annotations["degrade_mode"] == "serve-stale"
    assert fabric.service.stale_served == 1
    assert fabric.service.origin_fetches == 1  # no second fetch either


def test_fresh_hits_stay_full_quality_under_degradation():
    """Serve-stale must not turn fresh answers stale: a fresh hit is
    an ``ok`` even at the top of the ladder."""
    fabric = make_fabric()
    submit(fabric, record())
    fabric.service.degradation = ladder_stub(5)
    response = submit(fabric, record())
    assert response.status == "ok" and response.path == "cache-hit"


def test_reduced_fidelity_forces_the_brownout_tier():
    fabric = make_fabric()
    fabric.service.degradation = ladder_stub(1)
    response = submit(fabric, record())
    assert response.status == "degraded"
    assert response.path == "distilled-low-fidelity"
    assert response.annotations["degrade_level"] == 1
    assert fabric.service.low_fidelity_served == 1


def test_forced_tier_overrides_even_user_preferences():
    """The reduced-fidelity rung sheds distiller load cluster-wide, so
    its setting beats a user's explicit quality-90 profile too."""
    responses = []
    for level in (0, 1):
        fabric = make_fabric(profile_backend="single")
        fabric.profile_store.set("client0", "quality", 90)
        fabric.service.degradation = ladder_stub(level)
        responses.append(submit(fabric, record()))
    full, low = responses
    assert full.path == "distilled"
    assert low.path == "distilled-low-fidelity"
    assert low.size_bytes < full.size_bytes
    assert full.content.metadata["quality"] == 90
    assert {key: low.content.metadata[key]
            for key in REDUCED_FIDELITY_PARAMS} == REDUCED_FIDELITY_PARAMS


def test_open_breaker_converts_cold_misses_into_fast_fallbacks():
    fabric = make_fabric(origin_breaker_failures=3)
    service = fabric.service
    assert isinstance(service.origin_breaker, CircuitBreaker)
    service.origin_breaker._trip()
    env = fabric.cluster.env
    start = env.now
    response = submit(fabric, record())
    assert response.status == "fallback"
    assert response.path == "origin-breaker"
    assert service.breaker_fallbacks == 1
    assert service.origin_fetches == 0
    assert env.now - start < 0.1  # no origin wait: that is the point


def test_breaker_absent_unless_configured():
    fabric = make_fabric()
    assert fabric.service.origin_breaker is None


def test_degradation_refused_on_a_service_that_reads_no_rung():
    """Only the degradable bench service reads the service rungs; a
    controller started over any other service is refused rather than
    left to drive front ends alone."""
    plain = build_bench_fabric(n_nodes=4, seed=5)
    with pytest.raises(FabricError, match="BenchService reads no ladder"):
        plain.start_degradation()
    transend = TranSend(n_nodes=4, n_cache_nodes=1, seed=5)
    with pytest.raises(FabricError, match="TranSendLogic reads no ladder"):
        transend.fabric.start_degradation()
    assert plain.degradation is None and transend.fabric.degradation is None


def test_works_without_a_profile_store():
    fabric = make_fabric()
    assert isinstance(fabric.service, DegradableBenchService)
    assert fabric.service.store is None
    assert submit(fabric, record()).status != "error"


# -- brownout distiller cost model --------------------------------------------

def brownout_request(quality, size=24576):
    content = Content("http://pics/a.jpg", "image/jpeg",
                      zero_payload(size))
    return TACCRequest(inputs=[content], params={"quality": quality},
                       user_id="client0")


def test_brownout_quality_shrinks_estimate_and_sample():
    stock = JpegDistiller()
    brownout = BrownoutJpegDistiller()
    cheap = brownout_request(BrownoutJpegDistiller.BROWNOUT_QUALITY)
    estimate = brownout.work_estimate(cheap)
    assert estimate == stock.work_estimate(cheap) \
        * BrownoutJpegDistiller.BROWNOUT_COST_FACTOR
    rng_a = RandomStreams(2).stream("work")
    rng_b = RandomStreams(2).stream("work")
    assert brownout.work_sample(rng_a, cheap) == \
        stock.work_sample(rng_b, cheap) \
        * BrownoutJpegDistiller.BROWNOUT_COST_FACTOR


def test_normal_quality_costs_exactly_the_stock_model():
    stock = JpegDistiller()
    brownout = BrownoutJpegDistiller()
    normal = brownout_request(25)
    assert brownout.work_estimate(normal) == \
        stock.work_estimate(normal)
    rng_a = RandomStreams(2).stream("work")
    rng_b = RandomStreams(2).stream("work")
    assert brownout.work_sample(rng_a, normal) == \
        stock.work_sample(rng_b, normal)
