"""TranSend under the degradation ladder: forced low-fidelity tier,
serve-stale variants, and the origin circuit breaker's fallbacks."""

from types import SimpleNamespace

from repro.core.config import SNSConfig
from repro.sim.hashing import stable_hash
from repro.tacc.content import MIME_JPEG, Content
from repro.transend.adaptation import DEFAULT_TIERS
from repro.transend.profiles import distilled_cache_key
from repro.transend.service import TranSend
from repro.workload.trace import TraceRecord


def fast_config(**overrides):
    defaults = dict(
        dispatch_timeout_s=3.0,
        spawn_damping_s=4.0,
        frontend_connection_overhead_s=0.001,
    )
    defaults.update(overrides)
    return SNSConfig(**defaults)


def make_transend(**kwargs):
    kwargs.setdefault("config", fast_config())
    kwargs.setdefault("seed", 13)
    return TranSend(**kwargs).start(
        initial_workers={"jpeg-distiller": 1})


def record(url="http://pics/a.jpg", size=10240, client="client1"):
    return TraceRecord(timestamp=0.0, client_id=client, url=url,
                       mime=MIME_JPEG, size_bytes=size)


def ladder_stub(level):
    return SimpleNamespace(
        fidelity_reduced=level >= 1,
        serve_stale_active=level >= 2,
        relaxed_reads_active=level >= 3,
        priority_admission_active=level >= 4,
        deadline_shed_active=level >= 5,
        forced_tier=DEFAULT_TIERS[0],
    )


def test_forced_tier_overrides_even_user_preferences():
    vanilla = make_transend()
    full = vanilla.run(vanilla.submit(record()))
    assert full.status == "ok" and full.path == "distilled"

    transend = make_transend()
    transend.set_preference("client1", "quality", 90)
    transend.logic.degradation = ladder_stub(1)
    response = transend.run(transend.submit(record()))
    assert response.status == "degraded"
    assert response.path == "distilled-low-fidelity"
    assert response.annotations["degrade_mode"] == "reduced-fidelity"
    # the forced tier (quality 5, scale 4) beats both the default and
    # the user's explicit quality-90 ask
    assert response.size_bytes < full.size_bytes


def test_serve_stale_answers_from_any_cached_variant():
    transend = make_transend()
    first = transend.run(transend.submit(record(client="client1")))
    assert first.path == "distilled"
    # a second client with different preferences would normally cost
    # another distillation; under serve-stale it takes the variant
    transend.set_preference("client2", "quality", 75)
    transend.logic.degradation = ladder_stub(2)
    response = transend.run(
        transend.submit(record(client="client2")))
    assert response.status == "degraded"
    assert response.path == "serve-stale"
    assert response.size_bytes == first.size_bytes
    assert transend.origin.fetches == 1  # no second fetch either


def test_open_breaker_fails_fast_on_a_cold_url():
    transend = make_transend(config=fast_config(
        origin_breaker_failures=2))
    transend.logic.origin_breaker._trip()
    response = transend.run(
        transend.submit(record(url="http://pics/cold.jpg")))
    assert response.status == "error"
    assert response.path == "origin-breaker"
    assert transend.origin.fetches == 0
    assert transend.stats()["paths"]["origin-breaker"] == 1


def test_open_breaker_prefers_a_cached_variant():
    transend = make_transend(config=fast_config(
        origin_breaker_failures=2))
    url = "http://pics/warm.jpg"
    variant = Content(url, MIME_JPEG, b"v" * 2048)
    key = distilled_cache_key(url, {"quality": 99})
    transend.cachesys.store(key, stable_hash(key), variant, variant_of=url)
    transend.logic.origin_breaker._trip()
    response = transend.run(transend.submit(record(url=url)))
    assert response.status == "fallback"
    assert response.path == "fallback-variant"
    assert response.detail == "origin breaker open"
    assert response.size_bytes == 2048


def test_breaker_absent_unless_configured():
    transend = make_transend()
    assert transend.logic.origin_breaker is None
