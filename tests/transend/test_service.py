"""End-to-end TranSend tests: the Section 3.1 request path and the
Section 3.1.8 BASE behaviours."""

import pytest

from repro.core.config import SNSConfig
from repro.sim.rng import RandomStreams
from repro.tacc.content import MIME_GIF, MIME_HTML, MIME_JPEG
from repro.tacc.customization import TransactionError
from repro.transend.service import TranSend
from repro.workload.playback import PlaybackEngine
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
    return TranSend(**kwargs)


def record(url="http://pics/a.jpg", mime=MIME_JPEG, size=10240,
           client="client1", t=0.0):
    return TraceRecord(timestamp=t, client_id=client, url=url, mime=mime,
                       size_bytes=size)


def test_jpeg_request_is_distilled():
    transend = make_transend().start(
        initial_workers={"jpeg-distiller": 1})
    reply = transend.submit(record())
    response = transend.run(reply)
    assert response.status == "ok"
    assert response.path == "distilled"
    assert response.size_bytes < 10240 / 3
    assert response.content.metadata["derived_by"] == "jpeg-distiller"


def test_small_content_passes_through_unmodified():
    """The 1 KB distillation threshold."""
    transend = make_transend().start(
        initial_workers={"gif-distiller": 1})
    reply = transend.submit(record(url="http://icons/dot.gif",
                                   mime=MIME_GIF, size=200))
    response = transend.run(reply)
    assert response.path == "passthrough"
    assert response.size_bytes == 200


def test_unknown_mime_passes_through():
    transend = make_transend().start()
    reply = transend.submit(record(url="http://x/blob.bin",
                                   mime="application/octet-stream",
                                   size=50000))
    response = transend.run(reply)
    assert response.path == "passthrough"


def test_repeat_request_hits_distilled_cache():
    transend = make_transend().start(
        initial_workers={"jpeg-distiller": 1})
    first = transend.run(transend.submit(record()))
    assert first.path == "distilled"
    second = transend.run(transend.submit(record()))
    assert second.path == "cache-hit-distilled"
    assert second.size_bytes == first.size_bytes
    # the origin was fetched exactly once
    assert transend.origin.fetches == 1


def test_different_preferences_different_cache_entries():
    """Objects are named by URL *and* preferences (Section 3.1.8)."""
    transend = make_transend().start(
        initial_workers={"jpeg-distiller": 1})
    transend.set_preference("client2", "quality", 75)
    first = transend.run(transend.submit(record(client="client1")))
    second = transend.run(transend.submit(record(client="client2")))
    assert first.path == "distilled"
    assert second.path == "distilled"  # not a cache hit: different prefs
    assert second.size_bytes > first.size_bytes  # higher quality = bigger


def test_user_can_disable_distillation():
    transend = make_transend().start(
        initial_workers={"jpeg-distiller": 1})
    transend.set_preference("client9", "distill_images", False)
    reply = transend.submit(record(client="client9"))
    response = transend.run(reply)
    assert response.path == "passthrough"


def test_origin_breaker_setting_is_refused():
    """TranSend has no origin circuit breaker; a config that asks for
    one is refused, naming the field, instead of being ignored."""
    with pytest.raises(ValueError, match="origin_breaker_failures"):
        make_transend(config=fast_config(origin_breaker_failures=2))


def test_preference_validation_enforced():
    transend = make_transend().start()
    with pytest.raises(TransactionError):
        transend.set_preference("client1", "quality", 5000)


def test_total_distiller_loss_falls_back_to_original():
    """BASE approximate answers: 'if the required distiller has
    temporarily or permanently failed, the system can return the
    original content.'"""
    transend = make_transend(
        config=fast_config(spawn_threshold=1e9)).start(
        initial_workers={"jpeg-distiller": 1})
    # sabotage: remove the type from the registry so respawn cannot work,
    # then kill the distiller
    victim = transend.fabric.alive_workers("jpeg-distiller")[0]

    def sabotage(env):
        yield env.timeout(1.0)
        transend.registry._factories.pop("jpeg-distiller")
        victim.kill()

    transend.cluster.env.process(sabotage(transend.cluster.env))
    transend.run(until=transend.cluster.env.now + 3.0)
    reply = transend.submit(record())
    response = transend.run(reply)
    assert response.status == "fallback"
    assert response.path == "fallback-original"
    assert response.size_bytes == 10240


def test_overload_returns_cached_variant_if_available():
    """'If the system is too heavily loaded to perform distillation, it
    can return a somewhat different version from the cache.'"""
    transend = make_transend(
        config=fast_config(spawn_threshold=1e9)).start(
        initial_workers={"jpeg-distiller": 1})
    # client1 distills at default prefs -> variant cached
    transend.run(transend.submit(record(client="client1")))
    # now the distiller dies and cannot come back
    transend.registry._factories.pop("jpeg-distiller")
    for stub in transend.fabric.alive_workers("jpeg-distiller"):
        stub.kill()
    transend.run(until=transend.cluster.env.now + 3.0)
    # client2 wants different prefs -> exact key misses, variant serves
    transend.set_preference("client2", "quality", 75)
    reply = transend.submit(record(client="client2"))
    response = transend.run(reply)
    assert response.status == "fallback"
    assert response.path == "fallback-variant"
    assert response.size_bytes < 10240


def test_trace_driven_run_accumulates_sane_stats():
    transend = make_transend().start(
        initial_workers={"jpeg-distiller": 1, "gif-distiller": 1,
                         "html-munger": 1})
    rng = RandomStreams(5).stream("pb")
    engine = PlaybackEngine(transend.cluster.env, transend.submit,
                            rng=rng, timeout_s=60.0)
    pool = [
        record(url=f"http://site/img{index % 10}.jpg",
               client=f"client{index % 5}", t=float(index))
        for index in range(40)
    ]
    transend.cluster.env.process(engine.constant_rate(4.0, 30.0, pool))
    transend.run(until=120.0)
    assert len(engine.completed()) == len(engine.outcomes)
    stats = transend.stats()
    assert stats["paths"].get("distilled", 0) >= 1
    assert stats["paths"].get("cache-hit-distilled", 0) >= 1
    assert 0.0 < stats["cache_hit_rate"] <= 1.0
    # only 10 distinct URLs; a few duplicate fetches are expected when
    # concurrent requests race on the same cold URL (no coalescing)
    assert transend.origin.fetches <= 16


def test_profile_reads_absorbed_by_write_through_cache():
    transend = make_transend().start(
        initial_workers={"jpeg-distiller": 1})
    for index in range(5):
        transend.run(transend.submit(
            record(url=f"http://pics/{index}.jpg", client="client1")))
    cache = transend.logic.profile_cache_for(
        transend.fabric.alive_frontends()[0].name)
    assert cache.misses == 1
    assert cache.hits >= 4
