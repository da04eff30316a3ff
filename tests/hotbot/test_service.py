"""Tests for the HotBot cluster service: scatter-gather, degradation,
fast restart, cross-mounting, and the ACID database."""

import dataclasses
import math

import pytest

from repro.chaos.campaign import CrashSearchNode, Faults
from repro.hotbot.documents import Corpus
from repro.hotbot.partition import PartitionMap
from repro.hotbot.service import (DB_CAPACITY_RPS, DB_FAILOVER_S, TOP_K,
                                  HotBot, HotBotConfig)
from repro.sim.rng import RandomStreams


def make_hotbot(**config_overrides):
    defaults = dict(n_workers=4, n_docs=400, gather_timeout_s=1.0)
    defaults.update(config_overrides)
    return HotBot(config=HotBotConfig(**defaults), seed=21)


def crash(hotbot, partition, duration_s=None):
    """Crash ``partition``'s node now; it restarts ``duration_s`` later
    (never, when None)."""
    Faults(hotbot).arm((CrashSearchNode(
        at=hotbot.cluster.env.now, partition=partition,
        duration_s=duration_s),))


def ask(hotbot, terms=("w3", "w7"), user="u1"):
    return hotbot.run_until(hotbot.submit(list(terms), user))


def test_query_consults_all_partitions():
    hotbot = make_hotbot()
    result = ask(hotbot)
    assert result.partitions_answered == 4
    assert result.coverage == 1.0
    assert not result.partial
    assert result.hits
    scores = [hit.score for hit in result.hits]
    assert scores == sorted(scores, reverse=True)


def test_query_matches_single_index_answer():
    from repro.hotbot.index import InvertedIndex
    hotbot = make_hotbot()
    result = ask(hotbot, terms=("w2", "w9"))
    global_index = InvertedIndex(
        total_corpus_size=len(hotbot.corpus)).add_all(hotbot.corpus)
    expected = global_index.rank(["w2", "w9"], k=TOP_K)
    assert [h.doc_id for h in result.hits] == \
        [doc_id for _, doc_id in expected]


def test_node_loss_gives_partial_answers_fast_restart():
    """Fast-restart mode: a down node's partition is simply missing —
    '(the database) dropping from 54M to about 51M documents' — and the
    service stays up with partial coverage."""
    hotbot = make_hotbot(failure_mode="fast-restart")
    crash(hotbot, 0, duration_s=30.0)
    result = ask(hotbot)
    assert result.partial
    assert result.partitions_answered == 3
    assert 0.6 < result.coverage < 0.95
    assert result.hits  # still useful


def test_fast_restart_restores_full_coverage():
    hotbot = make_hotbot(failure_mode="fast-restart")
    crash(hotbot, 1, duration_s=5.0)
    degraded = ask(hotbot)
    assert degraded.partial
    hotbot.run(until=hotbot.cluster.env.now + 10.0)
    recovered = ask(hotbot)
    assert not recovered.partial
    assert recovered.coverage == 1.0


def test_cross_mount_keeps_full_data_availability():
    """Original Inktomi mode: 'when a node went down, other nodes would
    automatically take over responsibility for that data, maintaining
    100% data availability with graceful degradation in performance.'"""
    hotbot = make_hotbot(failure_mode="cross-mount")
    crash(hotbot, 0)
    result = ask(hotbot)
    assert not result.partial
    assert result.coverage == 1.0
    assert result.served_by_replica == 1
    # the replica-serving peer did extra work
    assert any(worker.replica_queries_served > 0
               for worker in hotbot.workers if worker.alive)


def test_cluster_move_half_at_a_time_stays_up():
    """The February 1997 move: 'HotBot was physically moved ... without
    ever being down, by moving half of the cluster at a time.'"""
    hotbot = make_hotbot(n_workers=6, failure_mode="fast-restart")
    # the move as one fault table: the first half leaves at once and is
    # back up 2 s later; the second half leaves at t=5
    Faults(hotbot).arm(tuple(
        CrashSearchNode(at=at, partition=partition, duration_s=2.0)
        for at, half in ((0.0, (0, 1, 2)), (5.0, (3, 4, 5)))
        for partition in half))
    mid_move = ask(hotbot)
    assert mid_move.partial and mid_move.hits
    assert mid_move.coverage > 0.3
    # first half arrived and restarted; second half leaves
    hotbot.run(until=5.0)
    moved = ask(hotbot)
    assert moved.partial  # the second half is on the truck
    assert moved.hits  # never fully down
    hotbot.run(until=hotbot.cluster.env.now + 10.0)
    final = ask(hotbot)
    assert not final.partial


def test_crashing_a_down_partition_leaks_no_worker():
    """A second crash of a partition already down is a no-op.  Two
    crashes used to schedule two restarts: the first replacement was
    never killed and kept its service loop and a rebuilt index beside
    the second."""
    hotbot = make_hotbot()
    Faults(hotbot).arm((
        CrashSearchNode(at=0.0, partition=0, duration_s=5.0),
        CrashSearchNode(at=2.0, partition=0, duration_s=5.0)))
    hotbot.run(until=20.0)
    worker = hotbot.workers[0]
    assert worker.alive
    assert worker.node.components == {worker.name}


def test_a_crash_of_a_partition_out_of_range_is_refused_when_it_fires():
    hotbot = make_hotbot()
    Faults(hotbot).arm((CrashSearchNode(at=1.0, partition=4),))
    with pytest.raises(ValueError, match="n_workers=4"):
        hotbot.run(until=2.0)


def test_informix_serializes_at_capacity():
    """The ACID database serves ~400 requests/second; a burst above
    that queues rather than degrading."""
    hotbot = make_hotbot()
    env = hotbot.cluster.env

    def burst(env):
        start = env.now
        events = [env.process(hotbot.database.request())
                  for _ in range(200)]
        yield env.all_of(events)
        return env.now - start

    elapsed = hotbot.run_until(env.process(burst(env)))
    # 200 DB requests at 400/s => 0.5 s serialized at the DB
    assert elapsed == pytest.approx(200 / DB_CAPACITY_RPS)
    assert hotbot.database.requests == 200


def test_informix_failover_blocks_then_recovers():
    """ACID never gives approximate answers: during failover queries
    wait, then complete."""
    hotbot = make_hotbot()
    env = hotbot.cluster.env
    hotbot.database.fail_primary()
    reply = hotbot.submit(["w1"])
    result = hotbot.run_until(reply)
    assert result.hits is not None
    assert env.now >= DB_FAILOVER_S  # had to wait out the failover
    assert hotbot.database.available  # the backup took over


def test_weighted_partitions_match_node_speeds():
    hotbot = HotBot(config=HotBotConfig(n_workers=2, n_docs=600),
                    node_speeds=[2.0, 1.0], seed=8)
    sizes = hotbot.partition_map.partition_sizes()
    assert sizes[0] > 1.5 * sizes[1]
    # faster node's bigger partition still answers in similar time:
    # work scales with postings but speed divides it
    result = ask(hotbot, terms=("w1",))
    assert result.partitions_answered == 2


def test_node_speed_mismatch_validated():
    for speeds in ([1.0], []):   # an empty list is no default
        with pytest.raises(ValueError, match="node_speeds length"):
            HotBot(config=HotBotConfig(n_workers=3), node_speeds=speeds)


# -- bad input fails at the call, not inside the simulation -------------------

def test_negative_offset_raises_at_the_call_and_spares_other_queries():
    """A bad offset used to surface out of `run()`, from inside the
    query process — after the Informix request was charged — and abort
    the simulation with every other query still in flight."""
    hotbot = make_hotbot()
    good = hotbot.submit(["w3", "w7"])
    with pytest.raises(ValueError, match="offset"):
        hotbot.submit(["w3"], offset=-5)
    result = hotbot.run_until(good)
    assert result.partitions_answered == 4 and result.hits
    assert hotbot.database.requests == 1  # the refused query cost none
    hotbot.run(until=hotbot.cluster.env.now + 5.0)  # nothing left to blow


@pytest.mark.parametrize("offset", [10.0, True, 2.5, "10", None])
def test_an_offset_that_is_not_an_int_is_refused_at_the_call(offset):
    """`offset=10.0` used to raise a `TypeError` out of `run()` (a
    float slice index) and `offset=True` was served as page 2."""
    hotbot = make_hotbot()
    good = hotbot.submit(["w3", "w7"])
    with pytest.raises(ValueError, match="^offset="):
        hotbot.submit(["w1", "w2"], offset=offset)
    assert hotbot.run_until(good).hits
    assert hotbot.database.requests == 1  # the refused query cost none
    hotbot.run(until=hotbot.cluster.env.now + 5.0)


@pytest.mark.parametrize("terms", [[1, 2], ["w1", None], [b"w1"]])
def test_a_term_that_is_not_a_string_is_refused_at_the_call(terms):
    """`submit([1, 2])` used to raise an `AttributeError` (`int` has
    no `lower`) out of `run()`, from inside the query process."""
    hotbot = make_hotbot()
    good = hotbot.submit(["w3", "w7"])
    with pytest.raises(TypeError, match="terms must be strings"):
        hotbot.submit(terms)
    assert hotbot.run_until(good).hits
    assert hotbot.database.requests == 1
    hotbot.run(until=hotbot.cluster.env.now + 5.0)


def test_terms_may_be_any_iterable_of_strings():
    hotbot = make_hotbot()
    from_list = hotbot.run_until(hotbot.submit(["w3", "w7"]))
    fresh = make_hotbot()
    assert fresh.run_until(fresh.submit(iter(("w3", "w7")))).hits \
        == from_list.hits


@pytest.mark.parametrize("speed", [math.nan, math.inf, -math.inf, 0.0,
                                   -1.0, True])
def test_a_node_speed_outside_its_domain_is_refused(speed):
    """A NaN or infinite speed used to pass `weight <= 0` and build
    partitions of sizes [0, 200]: one node held the whole corpus."""
    with pytest.raises(ValueError, match="^node_speeds="):
        HotBot(HotBotConfig(n_workers=2, n_docs=200),
               node_speeds=[1.0, speed])
    with pytest.raises(ValueError, match="^weights="):
        PartitionMap(Corpus(n_docs=200), [1.0, speed],
                     RandomStreams(1).stream("partition"))


def test_bare_string_query_is_refused():
    """`submit("w3")` used to iterate the string and answer `[]` for
    the terms "w" and "3"."""
    hotbot = make_hotbot()
    with pytest.raises(TypeError, match="bare string"):
        hotbot.submit("w3")
    assert hotbot.run_until(hotbot.submit(["w3"])).hits


@pytest.mark.parametrize("field, value", [
    ("n_workers", 0), ("n_docs", 0),
    ("frontend_threads", 0), ("query_fixed_s", -0.001),
    ("gather_timeout_s", -1.0),
    ("failure_mode", "fast_restart"),
    # a count must be an int and every value finite
    ("n_workers", 2.5), ("n_docs", math.nan),
    ("frontend_threads", 64.0), ("query_fixed_s", math.inf),
    ("gather_timeout_s", math.inf),
])
def test_config_rejects_bad_values_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        HotBotConfig(**{field: value})


FLOAT_FIELDS = [field.name for field in dataclasses.fields(HotBotConfig)
                if isinstance(field.default, float)]


@pytest.mark.parametrize("value", [math.nan, -math.inf])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_config_rejects_nan_and_minus_infinity_naming_the_field(field,
                                                                value):
    """NaN compares false with any floor, so a `value < floor` check let
    it through and the run died mid-simulation on a NaN delay."""
    with pytest.raises(ValueError, match=field):
        HotBotConfig(**{field: value})


def test_config_accepts_both_failure_modes_and_zero_costs():
    for mode in ("fast-restart", "cross-mount"):
        assert HotBotConfig(failure_mode=mode).failure_mode == mode
    assert HotBotConfig(query_fixed_s=0.0, gather_timeout_s=0.0)
