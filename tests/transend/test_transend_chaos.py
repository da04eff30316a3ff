"""Chaos soak against the full TranSend stack — including cache nodes.

"Caching in TranSend is only an optimization.  All cached data can be
thrown away at the cost of performance" (Section 3.1.5): killing cache
nodes must cost hit rate, never correctness.
"""

import pytest

from repro.core.config import SNSConfig
from repro.sim.rng import RandomStreams
from repro.transend.service import TranSend
from repro.workload.playback import PlaybackEngine
from repro.workload.tracegen import TraceGenerator


def test_transend_survives_mixed_component_chaos():
    transend = TranSend(
        n_nodes=12, n_cache_nodes=4, seed=23,
        config=SNSConfig(dispatch_timeout_s=5.0, spawn_damping_s=4.0,
                         frontend_connection_overhead_s=0.002))
    transend.start(n_frontends=2,
                   initial_workers={"jpeg-distiller": 1,
                                    "gif-distiller": 1,
                                    "html-munger": 1})
    env = transend.cluster.env
    trace = TraceGenerator(seed=31, mean_rate_rps=8.0,
                           n_users=60).generate(120.0)
    engine = PlaybackEngine(env, transend.submit,
                            rng=RandomStreams(5).stream("chaos"),
                            timeout_s=90.0)
    env.process(engine.play(trace))

    def saboteur(env):
        rng = RandomStreams(77).stream("saboteur")
        while env.now < 100.0:
            yield env.timeout(rng.exponential(12.0))
            roll = rng.random()
            if roll < 0.4 and transend.fabric.alive_workers():
                rng.choice(transend.fabric.alive_workers()).kill()
            elif roll < 0.6 and len(transend.cachesys.nodes) > 1:
                name = rng.choice(sorted(transend.cachesys.nodes))
                transend.cachesys.nodes[name].kill()
            elif roll < 0.8 and transend.fabric.manager and \
                    transend.fabric.manager.alive:
                transend.fabric.manager.kill()
            elif len(transend.fabric.alive_frontends()) > 1:
                rng.choice(
                    transend.fabric.alive_frontends()).kill()

    env.process(saboteur(env))
    transend.run(until=300.0)

    total = len(engine.outcomes)
    assert total > 500
    answered = [outcome for outcome in engine.outcomes if outcome.ok]
    # every answered request carried genuine content (correctness)
    for outcome in answered:
        assert outcome.response.size_bytes > 0
        assert outcome.response.status in ("ok", "fallback")
    # availability: the stack absorbed every category of failure
    assert len(answered) > 0.9 * total
    # the system converged back to health
    assert transend.fabric.manager.alive
    assert transend.fabric.alive_frontends()
    assert transend.cachesys.nodes  # at least one cache partition left


def test_killing_every_cache_node_degrades_but_never_breaks():
    transend = TranSend(
        n_nodes=8, n_cache_nodes=3, seed=29,
        config=SNSConfig(dispatch_timeout_s=5.0,
                         frontend_connection_overhead_s=0.002))
    transend.start(initial_workers={"jpeg-distiller": 1})
    # warm the cache with a repeated URL
    from repro.workload.trace import TraceRecord

    def record(t=0.0):
        return TraceRecord(t, "client1", "http://pics/a.jpg",
                           "image/jpeg", 10240)

    first = transend.run(transend.submit(record()))
    assert first.path == "distilled"
    warm = transend.run(transend.submit(record()))
    assert warm.path == "cache-hit-distilled"
    origin_fetches_before = transend.origin.fetches
    # throw away every cache node: all BASE data gone
    for name in list(transend.cachesys.nodes):
        transend.cachesys.nodes[name].kill()
    after = transend.run(transend.submit(record()))
    # correctness: a real answer, re-derived from the origin
    assert after.status == "ok"
    assert after.path == "distilled"
    # performance cost: the origin had to be consulted again
    assert transend.origin.fetches > origin_fetches_before
