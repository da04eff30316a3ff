"""Unit tests for the pluggable routing policies (repro.balance)."""

import pytest

from repro.balance import (
    POLICIES,
    BoundedLoadHashPolicy,
    EwmaLatencyPolicy,
    LeastOutstandingPolicy,
    LotteryPolicy,
    OutlierEjector,
    PolicyError,
    PowerOfTwoPolicy,
    RoundRobinPolicy,
    WeightedCanaryPolicy,
    available_policies,
    build_policy,
    parse_policy_spec,
    request_key,
)
from repro.balance.policies import EWMA_ALPHA
from repro.core.config import SNSConfig
from repro.core.manager_stub import AdvertState
from repro.core.messages import WorkerAdvert
from repro.sim.rng import RandomStreams


def make_state(name, queue=0.0, now=0.0, report_at=0.0,
               service_ewma=0.0, worker_type="test-worker"):
    advert = WorkerAdvert(
        worker_name=name, worker_type=worker_type, node_name="node0",
        stub=None, queue_avg=queue, last_report_at=report_at,
        service_ewma_s=service_ewma)
    return AdvertState(advert, now)


def lottery_stream(seed=7, owner="fe0"):
    return RandomStreams(seed).stream(f"lottery:{owner}")


# -- registry and spec parsing ------------------------------------------------

def test_registry_covers_every_policy_class():
    assert set(available_policies()) == set(POLICIES) == {
        "lottery", "round-robin", "least-outstanding", "p2c",
        "ewma", "weighted", "hash-bounded",
    }


def test_parse_policy_spec_base_and_wrappers():
    assert parse_policy_spec("lottery") == ("lottery", [])
    assert parse_policy_spec("ewma+eject") == ("ewma", ["eject"])
    assert parse_policy_spec(" p2c + eject ") == ("p2c", ["eject"])


def test_parse_policy_spec_rejects_unknowns():
    with pytest.raises(PolicyError, match="unknown routing policy"):
        parse_policy_spec("nonsense")
    with pytest.raises(PolicyError, match="unknown policy wrapper"):
        parse_policy_spec("lottery+nonsense")
    # one ejector wrapped inside another used to be built
    with pytest.raises(PolicyError, match="'eject' repeated"):
        parse_policy_spec("ewma+eject+eject")
    with pytest.raises(PolicyError, match="not None"):
        parse_policy_spec(None)


def test_build_policy_instantiates_and_wraps():
    config = SNSConfig()
    rng = lottery_stream()
    assert isinstance(build_policy("p2c", config, rng),
                      PowerOfTwoPolicy)
    wrapped = build_policy("ewma+eject", config, rng)
    assert isinstance(wrapped, OutlierEjector)
    assert isinstance(wrapped.inner, EwmaLatencyPolicy)
    assert wrapped.name == "ewma+eject"


def test_config_validate_rejects_bad_policy_spec():
    with pytest.raises(ValueError):
        SNSConfig(routing_policy="nonsense").validate()
    SNSConfig(routing_policy="hash-bounded+eject").validate()


# -- lottery identity ---------------------------------------------------------

def test_lottery_matches_inline_formula_draw_for_draw():
    """The refactored LotteryPolicy must consume the stream exactly as
    the pre-refactor inline arithmetic did: same weights, same single
    weighted_choice per pick, same winners."""
    config = SNSConfig()
    policy = LotteryPolicy(config, lottery_stream(seed=11))
    reference = lottery_stream(seed=11)
    candidates = [make_state(f"w{i}", queue=float(i * 3)) for i in range(5)]
    for round_number in range(200):
        now = 0.1 * round_number
        expected_weights = [
            1.0 / (1.0 + state.effective_queue(
                now, config.estimate_queue_deltas))
            ** config.lottery_gamma
            for state in candidates
        ]
        expected = reference.weighted_choice(candidates,
                                             expected_weights)
        assert policy.select(candidates, now, None) is expected


# -- round-robin --------------------------------------------------------------

def test_round_robin_cycles_sorted_by_name():
    policy = RoundRobinPolicy(SNSConfig(), None)
    candidates = [make_state("w2"), make_state("w0"), make_state("w1")]
    picks = [policy.select(candidates, 0.0, None).advert.worker_name
             for _ in range(6)]
    assert picks == ["w0", "w1", "w2", "w0", "w1", "w2"]


def test_round_robin_stable_under_cache_reordering():
    policy = RoundRobinPolicy(SNSConfig(), None)
    a, b = make_state("a"), make_state("b")
    first = policy.select([b, a], 0.0, None)
    second = policy.select([a, b], 0.0, None)
    assert first.advert.worker_name == "a"
    assert second.advert.worker_name == "b"


# -- least-outstanding --------------------------------------------------------

def test_least_outstanding_tracks_in_flight():
    policy = LeastOutstandingPolicy(SNSConfig(), None)
    candidates = [make_state("w0"), make_state("w1")]
    policy.on_submit("w0", 0.0)
    policy.on_submit("w0", 0.0)
    policy.on_submit("w1", 0.0)
    assert policy.select(candidates, 1.0, None).advert.worker_name == "w1"
    policy.on_reply("w0", 1.0, 0.5)
    policy.on_reply("w0", 1.0, 0.5)
    assert policy.select(candidates, 1.0, None).advert.worker_name == "w0"
    assert policy.stats()["outstanding"] == {"w1": 1}


def test_least_outstanding_breaks_ties_by_queue_then_name():
    policy = LeastOutstandingPolicy(SNSConfig(), None)
    candidates = [make_state("w1", queue=4.0), make_state("w0", queue=4.0),
                  make_state("w2", queue=1.0)]
    assert policy.select(candidates, 0.0, None).advert.worker_name == "w2"
    candidates = [make_state("w1"), make_state("w0")]
    assert policy.select(candidates, 0.0, None).advert.worker_name == "w0"


def test_outstanding_settles_on_timeout_and_removal():
    policy = LeastOutstandingPolicy(SNSConfig(), None)
    policy.on_submit("w0", 0.0)
    policy.on_timeout("w0", 1.0)
    assert policy.stats()["outstanding"] == {}
    policy.on_submit("w1", 0.0)
    policy.on_worker_removed("w1")
    assert policy.stats()["outstanding"] == {}


# -- power of two choices -----------------------------------------------------

def test_p2c_single_candidate_draws_nothing():
    rng = lottery_stream(seed=5)
    reference = lottery_stream(seed=5)
    policy = PowerOfTwoPolicy(SNSConfig(), rng)
    only = make_state("w0")
    assert policy.select([only], 0.0, None) is only
    # the stream was untouched: the next draw matches a fresh twin
    assert rng.random() == reference.random()


def test_p2c_picks_lighter_of_two_distinct_probes():
    config = SNSConfig()
    policy = PowerOfTwoPolicy(config, lottery_stream(seed=5))
    reference = lottery_stream(seed=5)
    candidates = [make_state(f"w{i}", queue=float(i * 2))
                  for i in range(6)]
    for _ in range(300):
        i = reference.randint(0, 5)
        j = reference.randint(0, 4)
        if j >= i:
            j += 1
        assert i != j
        lighter = min((candidates[i], candidates[j]),
                      key=lambda state: state.effective_queue(
                          0.0, config.estimate_queue_deltas))
        # ties go to the first probe; queues here are all distinct
        assert policy.select(candidates, 0.0, None) is lighter


def test_p2c_deterministic_across_same_seed_streams():
    candidates = [make_state(f"w{i}", queue=float(i)) for i in range(4)]
    one = PowerOfTwoPolicy(SNSConfig(), lottery_stream(seed=9))
    two = PowerOfTwoPolicy(SNSConfig(), lottery_stream(seed=9))
    picks_one = [one.select(candidates, 0.0, None).advert.worker_name
                 for _ in range(50)]
    picks_two = [two.select(candidates, 0.0, None).advert.worker_name
                 for _ in range(50)]
    assert picks_one == picks_two


# -- EWMA latency -------------------------------------------------------------

def test_ewma_prefers_observed_faster_worker():
    policy = EwmaLatencyPolicy(SNSConfig(), None)
    candidates = [make_state("w0"), make_state("w1")]
    for _ in range(5):
        policy.on_reply("w0", 0.0, 0.050)
        policy.on_reply("w1", 0.0, 0.500)
    assert policy.select(candidates, 1.0, None).advert.worker_name == "w0"


def test_ewma_cold_start_uses_advertised_service_time():
    policy = EwmaLatencyPolicy(SNSConfig(), None)
    fast = make_state("w-fast", service_ewma=0.040)
    slow = make_state("w-slow", service_ewma=0.400)
    assert policy.select([slow, fast], 0.0, None) is fast


def test_ewma_timeout_counts_as_worst_case_sample():
    config = SNSConfig()
    policy = EwmaLatencyPolicy(config, None)
    policy.on_reply("w0", 0.0, 0.050)
    policy.on_reply("w1", 0.0, 0.050)
    policy.on_timeout("w1", 1.0)
    candidates = [make_state("w0"), make_state("w1")]
    assert policy.select(candidates, 1.0, None).advert.worker_name == "w0"
    assert policy.ewma["w1"] > policy.ewma["w0"]
    assert policy.ewma["w1"] == pytest.approx(
        EWMA_ALPHA * 2.0 * config.dispatch_timeout_s
        + (1 - EWMA_ALPHA) * 0.050)


def test_ewma_outstanding_penalizes_pileups():
    policy = EwmaLatencyPolicy(SNSConfig(), None)
    policy.on_reply("w0", 0.0, 0.100)
    policy.on_reply("w1", 0.0, 0.100)
    for _ in range(3):
        policy.on_submit("w0", 0.0)
    candidates = [make_state("w0"), make_state("w1")]
    assert policy.select(candidates, 1.0, None).advert.worker_name == "w1"


# -- weighted canary ----------------------------------------------------------

def test_weighted_canary_is_newest_spawn_and_gets_its_fraction():
    config = SNSConfig()
    policy = WeightedCanaryPolicy(config, lottery_stream(seed=13))
    candidates = [make_state("jpeg-distiller.3"),
                  make_state("jpeg-distiller.12"),
                  make_state("jpeg-distiller.5")]
    picks = [policy.select(candidates, 0.0, None).advert.worker_name
             for _ in range(2000)]
    canary_share = picks.count("jpeg-distiller.12") / len(picks)
    assert canary_share == pytest.approx(0.1, abs=0.03)
    others = {name: picks.count(name) / len(picks)
              for name in ("jpeg-distiller.3", "jpeg-distiller.5")}
    for share in others.values():
        assert share == pytest.approx(0.45, abs=0.05)


def test_weighted_single_candidate_short_circuits():
    policy = WeightedCanaryPolicy(SNSConfig(), lottery_stream())
    only = make_state("w0")
    assert policy.select([only], 0.0, None) is only


# -- bounded-load consistent hashing ------------------------------------------

def test_hash_bounded_gives_stable_affinity():
    policy = BoundedLoadHashPolicy(SNSConfig(), None)
    candidates = [make_state(f"w{i}") for i in range(5)]
    first = policy.select(candidates, 0.0, key="http://x/img1.jpg")
    for _ in range(10):
        again = policy.select(candidates, 0.0, key="http://x/img1.jpg")
        assert again is first
    # different keys spread across more than one worker
    names = {
        policy.select(candidates, 0.0,
                      key=f"http://x/img{i}.jpg").advert.worker_name
        for i in range(40)
    }
    assert len(names) > 1


def test_hash_bounded_overflow_walks_the_ring():
    policy = BoundedLoadHashPolicy(SNSConfig(), None)
    candidates = [make_state(f"w{i}") for i in range(4)]
    key = "http://x/hot.jpg"
    home = policy.select(candidates, 0.0, key=key).advert.worker_name
    # pile outstanding work onto the home worker until the bound trips
    for _ in range(8):
        policy.on_submit(home, 0.0)
    moved = policy.select(candidates, 0.0, key=key).advert.worker_name
    assert moved != home
    assert policy.stats()["overflow_hops"] >= 1


def test_hash_bounded_survives_membership_change():
    policy = BoundedLoadHashPolicy(SNSConfig(), None)
    candidates = [make_state(f"w{i}") for i in range(5)]
    keys = [f"http://x/img{i}.jpg" for i in range(30)]
    before = {key: policy.select(candidates, 0.0, key=key)
              .advert.worker_name for key in keys}
    survivors = [state for state in candidates
                 if state.advert.worker_name != "w2"]
    after = {key: policy.select(survivors, 0.0, key=key)
             .advert.worker_name for key in keys}
    # keys not homed on the removed worker overwhelmingly stay put
    stayed = sum(1 for key in keys
                 if before[key] != "w2" and after[key] == before[key])
    unaffected = sum(1 for key in keys if before[key] != "w2")
    assert unaffected > 0
    assert stayed / unaffected >= 0.9


def test_hash_bounded_handles_missing_key():
    policy = BoundedLoadHashPolicy(SNSConfig(), None)
    candidates = [make_state(f"w{i}") for i in range(3)]
    assert policy.select(candidates, 0.0, key=None) in candidates


# -- request keys -------------------------------------------------------------

def test_request_key_prefers_url_then_user():
    from repro.tacc.content import Content
    from repro.tacc.worker import TACCRequest

    content = Content("http://x/a.jpg", "image/jpeg", b"xx")
    with_url = TACCRequest(inputs=[content], params={}, user_id="u1")
    assert request_key(with_url) == "http://x/a.jpg"
    without_inputs = TACCRequest(inputs=[], params={}, user_id="u1")
    assert request_key(without_inputs) == "u1"
    anonymous = TACCRequest(inputs=[], params={}, user_id=None)
    assert request_key(anonymous) is None
