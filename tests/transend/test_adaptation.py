"""Tests for network-aware distillation adaptation (Section 5.4)."""

import pytest

from repro.core.config import SNSConfig
from repro.transend.adaptation import (
    MODEM_14_4_BPS,
    MODEM_28_8_BPS,
    AdaptationPolicy,
    AdaptationTier,
    BandwidthEstimator,
)
from repro.transend.service import TranSend
from repro.workload.trace import TraceRecord


# -- estimator ---------------------------------------------------------------

def test_estimator_defaults_until_observed():
    estimator = BandwidthEstimator(default_bps=3600.0)
    assert estimator.bandwidth_bps("new-client") == 3600.0


def test_estimator_ewma_converges():
    estimator = BandwidthEstimator(alpha=0.5)
    for _ in range(20):
        estimator.observe("c1", bytes_sent=10_000, elapsed_s=1.0)
    assert estimator.bandwidth_bps("c1") == pytest.approx(10_000, rel=0.01)
    assert estimator.observations == 20


def test_estimator_ignores_degenerate_samples():
    estimator = BandwidthEstimator()
    estimator.observe("c1", bytes_sent=0, elapsed_s=1.0)
    estimator.observe("c1", bytes_sent=100, elapsed_s=0.0)
    assert estimator.observations == 0


def test_degenerate_samples_leave_the_estimate_untouched():
    """Zero-length responses and zero/negative elapsed times carry no
    bandwidth information; they must not drag the EWMA toward zero or
    divide by zero."""
    estimator = BandwidthEstimator(alpha=0.5, default_bps=3600.0)
    estimator.observe("c1", bytes_sent=10_000, elapsed_s=1.0)
    settled = estimator.bandwidth_bps("c1")
    estimator.observe("c1", bytes_sent=0, elapsed_s=1.0)
    estimator.observe("c1", bytes_sent=-50, elapsed_s=1.0)
    estimator.observe("c1", bytes_sent=100, elapsed_s=0.0)
    estimator.observe("c1", bytes_sent=100, elapsed_s=-2.0)
    assert estimator.bandwidth_bps("c1") == settled
    assert estimator.observations == 1
    # an unobserved client is likewise untouched by its own junk
    estimator.observe("c2", bytes_sent=0, elapsed_s=0.0)
    assert estimator.bandwidth_bps("c2") == 3600.0


def test_ewma_weights_recent_samples_so_order_matters():
    """The EWMA is order-dependent by design: the same two samples in
    opposite orders settle on different estimates (exact values,
    alpha = 0.5: first sample seeds the estimate, then
    0.5*new + 0.5*old)."""
    ab = BandwidthEstimator(alpha=0.5)
    ab.observe("c", bytes_sent=1000, elapsed_s=1.0)   # seeds at 1000
    ab.observe("c", bytes_sent=3000, elapsed_s=1.0)   # 0.5*3000+0.5*1000
    assert ab.bandwidth_bps("c") == 2000.0
    ba = BandwidthEstimator(alpha=0.5)
    ba.observe("c", bytes_sent=3000, elapsed_s=1.0)   # seeds at 3000
    ba.observe("c", bytes_sent=1000, elapsed_s=1.0)
    assert ba.bandwidth_bps("c") == 2000.0
    ab.observe("c", bytes_sent=1000, elapsed_s=1.0)   # 0.5*1000+0.5*2000
    ba.observe("c", bytes_sent=3000, elapsed_s=1.0)
    assert ab.bandwidth_bps("c") == 1500.0
    assert ba.bandwidth_bps("c") == 2500.0  # late sample dominates


def test_estimator_validates():
    with pytest.raises(ValueError):
        BandwidthEstimator(alpha=0.0)
    with pytest.raises(ValueError):
        BandwidthEstimator(default_bps=0.0)


# -- policy -------------------------------------------------------------------------

def test_slow_modem_gets_aggressive_distillation():
    policy = AdaptationPolicy()
    policy.estimator.observe("dialup", int(MODEM_14_4_BPS), 1.0)
    adapted = policy.adapt("dialup", {"quality": 25, "scale": 2})
    assert adapted["quality"] <= 10
    assert adapted["scale"] >= 3
    assert "14.4" in adapted["_adaptation_tier"]


def test_lan_client_gets_near_original_quality():
    policy = AdaptationPolicy()
    policy.estimator.observe("office", 1_000_000, 1.0)
    adapted = policy.adapt("office", {"quality": 25, "scale": 2})
    assert adapted["quality"] >= 90
    assert adapted["scale"] == 1


def test_explicit_user_choices_beat_adaptation():
    policy = AdaptationPolicy()
    policy.estimator.observe("dialup", int(MODEM_14_4_BPS), 1.0)
    preferences = {"quality": 80, "_user_set_quality": True,
                   "scale": 2}
    adapted = policy.adapt("dialup", preferences)
    assert adapted["quality"] == 80        # the user said so
    assert adapted["scale"] >= 3           # but scale still adapts


def test_unknown_client_uses_default_modem_tier():
    policy = AdaptationPolicy()
    adapted = policy.adapt("stranger", {})
    assert "28.8" in adapted["_adaptation_tier"]


def test_tier_boundaries_are_inclusive_on_the_low_side():
    """A client measured at *exactly* a tier's bandwidth bound belongs
    to that tier (``<=`` semantics): 2160 B/s is still the 14.4k modem,
    4320 B/s is still the 28.8k modem."""
    policy = AdaptationPolicy()
    cases = [
        (MODEM_14_4_BPS, "14.4"),    # 1800 B/s, well inside
        (2160.0, "14.4"),            # exactly the 14.4k bound
        (2160.1, "28.8"),            # just over: next tier up
        (MODEM_28_8_BPS, "28.8"),    # 3600 B/s
        (4320.0, "28.8"),            # exactly the 28.8k bound
        (4320.1, "ISDN"),
    ]
    for index, (bps, expected) in enumerate(cases):
        client = f"edge{index}"
        # a single observation seeds the EWMA with the raw sample, so
        # the estimate is exactly ``bps``
        policy.estimator.observe(client, bytes_sent=int(bps * 10),
                                 elapsed_s=10.0)
        adapted = policy.adapt(client, {})
        assert expected in adapted["_adaptation_tier"], \
            (bps, adapted["_adaptation_tier"])


def test_tier_validation():
    with pytest.raises(ValueError):
        AdaptationPolicy(tiers=())
    with pytest.raises(ValueError):
        AdaptationPolicy(tiers=(
            AdaptationTier(100.0, 10, 2, "a"),
            AdaptationTier(50.0, 20, 1, "b"),   # unordered
        ))
    with pytest.raises(ValueError):
        AdaptationPolicy(tiers=(
            AdaptationTier(100.0, 10, 2, "bounded-last"),))


# -- end to end through TranSend -------------------------------------------------------

def test_adaptive_transend_differentiates_clients():
    transend = TranSend(
        seed=17, adaptive=True,
        config=SNSConfig(dispatch_timeout_s=5.0,
                         frontend_connection_overhead_s=0.001))
    transend.start(initial_workers={"jpeg-distiller": 1})
    # teach the estimator about two very different clients
    transend.adaptation.estimator.observe("slow", int(MODEM_14_4_BPS),
                                          1.0)
    transend.adaptation.estimator.observe("fast", 2_000_000, 1.0)

    def record(client, url):
        return TraceRecord(0.0, client, url, "image/jpeg", 10240)

    slow_response = transend.run(
        transend.submit(record("slow", "http://pics/a.jpg")))
    fast_response = transend.run(
        transend.submit(record("fast", "http://pics/b.jpg")))
    assert slow_response.path == "distilled"
    assert fast_response.path == "distilled"
    # the slow modem's copy is much smaller
    assert slow_response.size_bytes < fast_response.size_bytes / 2


def test_adaptive_transend_respects_stored_preferences():
    transend = TranSend(
        seed=18, adaptive=True,
        config=SNSConfig(dispatch_timeout_s=5.0,
                         frontend_connection_overhead_s=0.001))
    transend.start(initial_workers={"jpeg-distiller": 1})
    transend.adaptation.estimator.observe("slow", int(MODEM_14_4_BPS),
                                          1.0)
    transend.set_preference("slow", "quality", 90)  # explicit choice

    record = TraceRecord(0.0, "slow", "http://pics/a.jpg",
                         "image/jpeg", 10240)
    response = transend.run(transend.submit(record))
    # quality respected in the distilled artifact's provenance
    assert response.content.metadata["quality"] == 90
