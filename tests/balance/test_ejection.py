"""Unit tests for passive outlier ejection (repro.balance.ejection)."""

import pytest

from repro.balance import OutlierEjector, build_policy
from repro.balance.ejection import OUTLIER_MIN_SAMPLES
from repro.core.config import SNSConfig
from repro.core.manager_stub import AdvertState
from repro.core.messages import WorkerAdvert


def make_state(name, queue=0.0, now=0.0):
    advert = WorkerAdvert(
        worker_name=name, worker_type="test-worker", node_name="node0",
        stub=None, queue_avg=queue, last_report_at=0.0)
    return AdvertState(advert, now)


def make_ejector():
    policy = build_policy("round-robin+eject", SNSConfig(), None)
    assert isinstance(policy, OutlierEjector)
    return policy


def feed_latencies(policy, samples, now=0.0):
    """samples: {worker: latency} fed OUTLIER_MIN_SAMPLES times each."""
    for _ in range(OUTLIER_MIN_SAMPLES):
        for name, latency in samples.items():
            policy.on_reply(name, now, latency)


def names_of(candidates):
    return [state.advert.worker_name for state in candidates]


# -- latency outliers ---------------------------------------------------------

def test_latency_outlier_is_ejected():
    policy = make_ejector()
    candidates = [make_state(f"w{i}") for i in range(4)]
    feed_latencies(policy, {"w0": 0.05, "w1": 0.05, "w2": 0.06,
                            "w3": 0.80})
    picks = {policy.select(candidates, 1.0, None).advert.worker_name
             for _ in range(8)}
    assert "w3" not in picks
    assert policy.ejections == 1
    assert policy.first_ejection_at == pytest.approx(1.0)
    assert policy.stats()["ejected_workers"] == {
        "w3": pytest.approx(1.0)}
    assert policy.stats()["ejection_times"] == {
        "w3": (pytest.approx(1.0),)}


def test_ejection_expires_and_readmits_on_probation():
    policy = make_ejector()
    candidates = [make_state(f"w{i}") for i in range(4)]
    feed_latencies(policy, {"w0": 0.05, "w1": 0.05, "w2": 0.06,
                            "w3": 0.80})
    policy.select(candidates, 1.0, None)
    assert policy.health["w3"].ejected_until == pytest.approx(6.0)
    # history cleared: after the window the worker re-enters clean and
    # needs fresh offending samples before it can be ejected again
    assert policy.health["w3"].samples == 0
    picks = {policy.select(candidates, 7.0, None).advert.worker_name
             for _ in range(8)}
    assert "w3" in picks
    assert policy.ejections == 1


def test_repeat_offender_ejection_doubles():
    policy = make_ejector()
    candidates = [make_state(f"w{i}") for i in range(4)]
    feed_latencies(policy, {"w0": 0.05, "w1": 0.05, "w2": 0.06,
                            "w3": 0.80})
    policy.select(candidates, 1.0, None)     # first ejection: 5 s
    # re-offends right after re-admission (inside the window)
    feed_latencies(policy, {"w0": 0.05, "w1": 0.05, "w2": 0.06,
                            "w3": 0.80}, now=7.0)
    policy.select(candidates, 7.0, None)
    record = policy.health["w3"]
    assert record.ejected_until == pytest.approx(7.0 + 10.0)  # doubled
    assert policy.ejections == 2


def test_long_clean_stretch_forgives_offence_count():
    policy = make_ejector()
    candidates = [make_state(f"w{i}") for i in range(4)]
    feed_latencies(policy, {"w0": 0.05, "w1": 0.05, "w2": 0.06,
                            "w3": 0.80})
    policy.select(candidates, 1.0, None)
    # clean for far longer than the window, then offends again
    feed_latencies(policy, {"w0": 0.05, "w1": 0.05, "w2": 0.06,
                            "w3": 0.80}, now=100.0)
    policy.select(candidates, 100.0, None)
    assert policy.health["w3"].ejected_until == pytest.approx(105.0)


def test_no_ejection_below_min_peers():
    policy = make_ejector()
    candidates = [make_state("w0"), make_state("w1")]
    feed_latencies(policy, {"w0": 0.05, "w1": 5.0})
    picks = {policy.select(candidates, 1.0, None).advert.worker_name
             for _ in range(4)}
    assert picks == {"w0", "w1"}
    assert policy.ejections == 0


def test_cluster_wide_slowness_ejects_nobody():
    """Peer-relativity: when everyone is slow, nobody is an outlier."""
    policy = make_ejector()
    candidates = [make_state(f"w{i}") for i in range(4)]
    feed_latencies(policy, {f"w{i}": 2.0 for i in range(4)})
    policy.select(candidates, 1.0, None)
    assert policy.ejections == 0


# -- timeout outliers ---------------------------------------------------------

def test_timeout_offender_is_ejected():
    policy = make_ejector()
    candidates = [make_state(f"w{i}") for i in range(4)]
    for _ in range(3):
        policy.on_timeout("w3", 0.5)
    picks = {policy.select(candidates, 1.0, None).advert.worker_name
             for _ in range(8)}
    assert "w3" not in picks
    assert policy.ejections == 1


def test_timeout_window_expires_old_evidence():
    policy = make_ejector()
    candidates = [make_state(f"w{i}") for i in range(4)]
    policy.on_timeout("w3", 0.0)
    policy.on_timeout("w3", 1.0)
    policy.on_timeout("w3", 50.0)  # the first two are long stale
    policy.select(candidates, 51.0, None)
    assert policy.ejections == 0


def test_majority_timeouts_guard_blocks_mass_ejection():
    """When half or more of the pool is timing out, ejection would only
    shrink an already-failing pool: nobody is ejected."""
    policy = make_ejector()
    candidates = [make_state(f"w{i}") for i in range(4)]
    for name in ("w0", "w1", "w2"):
        policy.on_timeout(name, 0.5)
        policy.on_timeout(name, 0.6)
        policy.on_timeout(name, 0.7)
    policy.select(candidates, 1.0, None)
    assert policy.ejections == 0


# -- fail-open ----------------------------------------------------------------

def test_fail_open_when_every_candidate_is_ejected():
    policy = make_ejector()
    candidates = [make_state(f"w{i}") for i in range(4)]
    # eject w3 legitimately ...
    policy.on_timeout("w3", 0.5)
    policy.on_timeout("w3", 0.6)
    policy.on_timeout("w3", 0.7)
    policy.select(candidates, 1.0, None)
    assert policy.ejections == 1
    # ... then ask for a pick among ejected workers only
    only_ejected = [state for state in candidates
                    if state.advert.worker_name == "w3"]
    choice = policy.select(only_ejected, 1.5, None)
    assert choice.advert.worker_name == "w3"
    assert policy.fail_opens == 1


# -- plumbing -----------------------------------------------------------------

def test_hooks_forward_to_inner_policy():
    config = SNSConfig()
    policy = build_policy("least-outstanding+eject", config, None)
    policy.on_submit("w0", 0.0)
    assert policy.inner.outstanding == {"w0": 1}
    policy.on_reply("w0", 1.0, 0.5)
    assert policy.inner.outstanding == {}
    policy.on_submit("w1", 0.0)
    policy.on_worker_removed("w1")
    assert policy.inner.outstanding == {}


def test_stats_merge_inner_and_ejector_counters():
    policy = build_policy("least-outstanding+eject", SNSConfig(), None)
    stats = policy.stats()
    assert "outstanding" in stats          # inner
    assert stats["ejections"] == 0         # ejector
    assert stats["fail_opens"] == 0


def test_needs_key_follows_inner():
    assert build_policy("hash-bounded+eject", SNSConfig(),
                        None).needs_key
    assert not build_policy("ewma+eject", SNSConfig(), None).needs_key
