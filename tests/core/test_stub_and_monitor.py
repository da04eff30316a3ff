"""Unit tests for the manager stub's hint cache and the monitor."""

import pytest

from repro.core.config import SNSConfig
from repro.core.manager_stub import AdvertState, ManagerStub
from repro.core.messages import ManagerBeacon, WorkerAdvert
from repro.core.monitor import Monitor
from repro.sim.cluster import Cluster
from repro.sim.rng import RandomStreams

from tests.core.conftest import fast_config, make_fabric, make_record


def advert(name="w1", worker_type="test-worker", queue_avg=0.0,
           report_at=0.0, stub=None):
    return WorkerAdvert(
        worker_name=name, worker_type=worker_type, node_name="n0",
        stub=stub, queue_avg=queue_avg, last_report_at=report_at)


def beacon(adverts, incarnation=1, at=0.0):
    return ManagerBeacon(
        manager_id="manager.1", incarnation=incarnation,
        manager=None, sent_at=at,
        adverts={a.worker_name: a for a in adverts})


def make_stub(config=None):
    cluster = Cluster(seed=3)
    stub = ManagerStub(cluster, config or fast_config(), "fe0",
                       cluster.streams.stream("lottery"))
    return cluster, stub


# -- beacon cache ----------------------------------------------------------------

def test_observe_beacon_caches_adverts():
    cluster, stub = make_stub()
    is_new = stub.observe_beacon(beacon([advert("w1"), advert("w2")]))
    assert is_new
    assert set(stub.adverts) == {"w1", "w2"}
    assert not stub.observe_beacon(beacon([advert("w1")]))


def test_beacon_removes_dead_workers_from_cache():
    """'The manager reports distiller failures to the manager stubs,
    which update their caches.'"""
    cluster, stub = make_stub()
    stub.observe_beacon(beacon([advert("w1"), advert("w2")]))
    stub.observe_beacon(beacon([advert("w2")]))
    assert set(stub.adverts) == {"w2"}


def test_new_incarnation_detected():
    cluster, stub = make_stub()
    assert stub.observe_beacon(beacon([], incarnation=1))
    assert not stub.observe_beacon(beacon([], incarnation=1))
    assert stub.observe_beacon(beacon([], incarnation=2))


def test_beacon_age_tracks_staleness():
    cluster, stub = make_stub()
    assert stub.beacon_age() == float("inf")
    stub.observe_beacon(beacon([]))

    def advance(env):
        yield env.timeout(4.0)

    cluster.env.run(until=cluster.env.process(advance(cluster.env)))
    assert stub.beacon_age() == pytest.approx(4.0)


# -- delta estimation (the Section 4.5 oscillation fix) --------------------------------

def test_effective_queue_extrapolates_growth():
    state = AdvertState(advert(queue_avg=4.0, report_at=0.0), now=0.0)
    state.refresh(advert(queue_avg=8.0, report_at=1.0), now=1.0)
    # slope = 4 per second; 0.5 s later the estimate should be ~10
    assert state.effective_queue(1.5, estimate_deltas=True) == \
        pytest.approx(10.0)
    # without estimation, the stale value is used as-is
    assert state.effective_queue(1.5, estimate_deltas=False) == \
        pytest.approx(8.0)


def test_effective_queue_counts_local_dispatches():
    state = AdvertState(advert(queue_avg=2.0), now=0.0)
    state.sent_since_report = 3
    assert state.effective_queue(0.0, estimate_deltas=True) == \
        pytest.approx(5.0)


def test_effective_queue_never_negative():
    state = AdvertState(advert(queue_avg=6.0, report_at=0.0), now=0.0)
    state.refresh(advert(queue_avg=1.0, report_at=1.0), now=1.0)
    assert state.effective_queue(10.0, estimate_deltas=True) == 0.0


def test_refresh_without_new_report_keeps_slope_window():
    state = AdvertState(advert(queue_avg=4.0, report_at=0.0), now=0.0)
    state.sent_since_report = 2
    # same report re-broadcast: not a new sample
    state.refresh(advert(queue_avg=4.0, report_at=0.0), now=0.5)
    assert state.sent_since_report == 2
    assert state.slope == 0.0   # still one sample: nothing to extrapolate


# -- lottery -----------------------------------------------------------------------------

def test_lottery_prefers_short_queues():
    cluster, stub = make_stub()
    stub.observe_beacon(beacon([
        advert("idle", queue_avg=0.0),
        advert("busy", queue_avg=9.0),
    ]))
    picks = [stub.pick("test-worker").advert.worker_name
             for _ in range(2000)]
    idle_share = picks.count("idle") / len(picks)
    assert idle_share > 0.9


def test_lottery_still_spreads_over_equal_queues():
    cluster, stub = make_stub()
    stub.observe_beacon(beacon([
        advert("a", queue_avg=2.0),
        advert("b", queue_avg=2.0),
    ]))
    picks = [stub.pick("test-worker").advert.worker_name
             for _ in range(2000)]
    assert 0.4 < picks.count("a") / len(picks) < 0.6


def test_pick_returns_none_for_unknown_type():
    cluster, stub = make_stub()
    stub.observe_beacon(beacon([advert("w1")]))
    assert stub.pick("nonexistent-type") is None


# -- oscillation ablation ------------------------------------------------------------------

def queue_oscillation(estimate_deltas, seed=11):
    """Run 2 workers near saturation and measure queue-length swing."""
    from repro.sim.rng import RandomStreams
    from repro.workload.playback import PlaybackEngine

    fabric = make_fabric(
        n_nodes=8, seed=seed,
        config=fast_config(estimate_queue_deltas=estimate_deltas,
                           spawn_threshold=1e9,   # fix the worker count
                           report_interval_s=1.0,
                           beacon_interval_s=1.0))
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=2.0)
    engine = PlaybackEngine(fabric.cluster.env, fabric.submit,
                            rng=RandomStreams(seed).stream("pb"),
                            timeout_s=60.0)
    pool = [make_record(i) for i in range(30)]
    fabric.cluster.env.process(engine.constant_rate(45.0, 60.0, pool))
    # sample each worker's instantaneous queue every 0.5 s
    samples = {stub.name: [] for stub in fabric.alive_workers()}

    def sampler(env):
        while env.now < 60.0:
            yield env.timeout(0.5)
            for stub in fabric.alive_workers():
                samples[stub.name].append(stub.load)

    fabric.cluster.env.process(sampler(fabric.cluster.env))
    fabric.cluster.run(until=70.0)
    # swing = mean absolute sample-to-sample change, averaged over workers
    swings = []
    for series in samples.values():
        diffs = [abs(b - a) for a, b in zip(series, series[1:])]
        if diffs:
            swings.append(sum(diffs) / len(diffs))
    return sum(swings) / len(swings)


def test_delta_estimation_damps_queue_oscillation():
    """Section 4.5: stale-only hints cause 'rapid oscillations in queue
    lengths'; the running-estimate fix eliminates them."""
    stale = queue_oscillation(estimate_deltas=False)
    estimated = queue_oscillation(estimate_deltas=True)
    assert estimated < stale * 0.8, (stale, estimated)


# -- monitor -----------------------------------------------------------------------------------

def test_monitor_pages_on_silent_component(fabric):
    """'The monitor can page or email the system operator ... if it
    stops receiving reports from some component.'"""
    fabric.boot(n_frontends=0, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=3.0)
    # kill the manager; with no front ends, nobody restarts it
    fabric.manager.kill()
    fabric.cluster.run(until=20.0)
    page_components = {alert.component for alert in fabric.monitor.pages()}
    assert fabric.manager.name in page_components


def test_monitor_render_mentions_components(fabric):
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    fabric.cluster.run(until=3.0)
    panel = fabric.monitor.render()
    assert "manager.1" in panel
    assert "test-worker.1" in panel
    assert "SNS monitor" in panel
