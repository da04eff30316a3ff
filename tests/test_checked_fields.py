"""Every declared domain, exercised: a value drawn outside a field's or
an argument's domain is refused naming it, and one drawn inside is
accepted.

The cases are read from the code, never written beside it: the field
metadata of the four configs and of every concrete
:class:`~repro.chaos.campaign.Fault` (found by introspection, as
``tests/chaos/test_fault_table.py`` finds them), and the ``DOMAINS``
table of each checked constructor and player.  A new field with a
domain is covered the day it lands; a new field without one fails
:func:`test_every_field_declares_a_domain_or_is_listed`.
"""

import inspect
import math
import sys
from dataclasses import fields
from typing import Any, NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.latency import HarvestLatencyModel
from repro.cache.lru import LRUCache
from repro.chaos import campaign as campaign_module
from repro.chaos.campaign import Campaign, Fault
from repro.core.config import SNSConfig
from repro.degrade.guards import CircuitBreaker, RetryBudget
from repro.domains import DOMAIN, Choice
from repro.hotbot.documents import Corpus
from repro.hotbot.index import InvertedIndex
from repro.hotbot.partition import PartitionMap
from repro.hotbot.query_cache import QueryCache
from repro.hotbot.service import HotBot, HotBotConfig
from repro.recovery.policy import RecoveryPolicy
from repro.sim.kernel import Environment
from repro.sim.network import AccessLink, FaultWindow, Link
from repro.sim.rng import Lottery, RandomStreams
from repro.workload.distributions import Mode, SizeModel
from repro.workload.playback import PlaybackEngine
from repro.workload.tracegen import (
    FIXED_JPEG_DOMAINS,
    DocumentUniverse,
    TraceGenerator,
    iter_fixed_jpeg_trace,
)

FAULT_KINDS = sorted(
    (cls for _, cls in inspect.getmembers(campaign_module, inspect.isclass)
     if issubclass(cls, Fault) and cls is not Fault),
    key=lambda cls: cls.__name__)

#: fields that declare no domain, and what checks them instead.
UNDECLARED = {
    "SNSConfig": {"routing_policy"},           # parsed by validate()
    "Campaign": {"name", "description",        # free text
                 "actions",                    # each row's check()
                 "config_overrides",           # SNSConfig.validate()
                 "recovery",                   # RecoveryPolicy.validate()
                 "arrival_schedule"},          # ARRIVAL_STEP, per step
    "PartitionSAN": {"isolate"},               # parse_node_spec
    "AsymmetricLink": {"src", "dst"},          # parse_node_spec, src != dst
    "LossyWindow": {"scope"},                  # any group name
    "RollingUpgrade": {"nodes"},               # parse_node_spec
}

#: constructor and player arguments that are not values to check.
UNCHECKED = {
    "RetryBudget.__init__": set(),
    "CircuitBreaker.__init__": {"clock"},
    "HarvestLatencyModel.__init__": {"rng"},
    "Link.__init__": {"env", "name"},
    "FaultWindow.__init__": {"scope", "start", "end"},
    "PlaybackEngine.__init__": {"env", "submit", "rng", "record_outcomes",
                                "on_success"},
    "PlaybackEngine.play": {"records"},
    "PlaybackEngine.constant_rate": {"records"},
    "PlaybackEngine.ramp": {"records"},
    "HotBot.__init__": {"config", "seed"},
    "HotBot.submit": {"terms", "user_id"},
    "PartitionMap.__init__": {"corpus", "rng"},
    "TraceGenerator.__init__": {"seed", "universe"},
    "TraceGenerator.generate": set(),
    "DocumentUniverse.__init__": {"rng", "mime_mix", "size_models"},
    "iter_fixed_jpeg_trace": {"seed"},
    "Corpus.__init__": {"seed"},
    "InvertedIndex.__init__": {"global_df"},
    "QueryCache.__init__": set(),
    "LRUCache.__init__": set(),
}


# -- building each owner with one value changed --------------------------------

def small_universe():
    return DocumentUniverse(RandomStreams(3).stream("u"), n_shared_docs=50)


def run_player(mode, **values):
    """Start one player with ``values`` and take its first step."""
    env = Environment()
    if mode == "__init__":
        PlaybackEngine(env, lambda record: None, **values)
        return
    engine = PlaybackEngine(env, lambda record: None,
                            rng=RandomStreams(5).stream("playback"))
    if mode == "play":
        player = engine.play([], **values)
    elif mode == "constant_rate":
        player = engine.constant_rate(
            **{"rate_rps": 10.0, "duration_s": 10.0, **values},
            records=["r"])
    else:
        step = {"duration_s": 5.0, "rate_rps": 10.0, **values}
        player = engine.ramp([(step["duration_s"], step["rate_rps"])],
                             ["r"])
    next(player, None)


#: owner -> how to make (and validate) it from keyword overrides.
MAKERS = {
    "SNSConfig": lambda **values: SNSConfig(**values).validate(),
    "RecoveryPolicy": lambda **values: RecoveryPolicy(**values).validate(),
    "HotBotConfig": lambda **values: HotBotConfig(**values),
    "Campaign": lambda **values: Campaign(
        **{"name": "c", "description": "d", "duration_s": 60.0,
           **values}).validate(),
    "RetryBudget": lambda **values: RetryBudget(
        **{"ratio": 0.1, "cap": 10.0, **values}),
    "CircuitBreaker": lambda **values: CircuitBreaker(
        lambda: 0.0, **{"failure_threshold": 3, "cooldown_s": 10.0,
                        "slow_s": 2.0, **values}),
    "HarvestLatencyModel": lambda **values: HarvestLatencyModel(
        RandomStreams(7).stream("cache"), **values),
    "Link": lambda **values: Link(
        Environment(), "l", **{"bandwidth_bps": 1e6, **values}),
    "AccessLink": lambda **values: AccessLink(
        Environment(), "l", **{"bandwidth_bps": 1e6, **values}),
    "FaultWindow": lambda **values: FaultWindow("g", 0.0, None, **values),
    **{f"PlaybackEngine.{mode}":
       (lambda mode: lambda **values: run_player(mode, **values))(mode)
       for mode in PlaybackEngine.DOMAINS},
    # each element of a list argument is checked under its name
    "HotBot.__init__": lambda node_speeds: HotBot(
        HotBotConfig(n_workers=2, n_docs=20), node_speeds=[1.0, node_speeds]),
    "HotBot.submit": lambda offset: HotBot(
        HotBotConfig(n_workers=1, n_docs=20)).submit(["w1"], offset=offset),
    "PartitionMap": lambda weights: PartitionMap(
        Corpus(n_docs=20), [1.0, weights], RandomStreams(3).stream("pm")),
    "Lottery": lambda weights: Lottery(["a", "b"], [1.0, weights]),
    "SizeModel": lambda **values: SizeModel(
        [Mode(**{"mean": 500.0, "sigma": 1.0, **values})]),
    "TraceGenerator.__init__": lambda **values: TraceGenerator(
        universe=small_universe(), **values),
    # generate and iter_generate share the check; the iterator draws
    # only the first bucket, whatever the duration
    "TraceGenerator.generate": lambda duration_s: next(TraceGenerator(
        universe=small_universe()).iter_generate(duration_s), None),
    # drawn from, so a universe that cannot draw a document fails here
    "DocumentUniverse": lambda **values: DocumentUniverse(
        RandomStreams(3).stream("u"), **{"n_shared_docs": 50, **values}
    ).sample_batch(["client1"] * 20, RandomStreams(4).stream("d")),
    "iter_fixed_jpeg_trace": lambda **values: next(iter_fixed_jpeg_trace(
        **{"rate_rps": 10.0, "n_requests": 3, **values}), None),
    "Corpus": lambda **values: Corpus(**{"n_docs": 3, **values}),
    "InvertedIndex": lambda **values: InvertedIndex(**values),
    "QueryCache": lambda **values: QueryCache(**values),
    "LRUCache": lambda **values: LRUCache(**values),
}
#: the fields a fault row cannot be built without.
REQUIRED = {"at": 1.0, "mode": "hang", "nodes": ("node1",)}
for kind in FAULT_KINDS:
    MAKERS[kind.__name__] = (lambda kind: lambda **values: kind(
        **{**{name: value for name, value in REQUIRED.items()
              if name in {item.name for item in fields(kind)}},
           **values}).check())(kind)

#: (owner, field) -> other values that keep a joint rule out of the way
#: while the field is drawn inside its domain.
PARTNERS = {
    ("SNSConfig", "admission_exit_backlog_s"):
        {"admission_max_backlog_s": 1e7},
    ("HarvestLatencyModel", "mean_hit_s"): {"tcp_overhead_s": 0.0},
    ("HarvestLatencyModel", "tcp_overhead_s"): {"mean_hit_s": 1e7},
    ("HarvestLatencyModel", "miss_min_s"): {"miss_max_s": 1e7},
    ("HarvestLatencyModel", "miss_max_s"):
        {"miss_min_s": sys.float_info.min},
    ("LossyWindow", "loss"): {"jitter_s": 0.01},
}


class Case(NamedTuple):
    owner: str
    name: str
    domain: Any

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.name}"

    def build(self, value) -> None:
        MAKERS[self.owner](**PARTNERS.get((self.owner, self.name), {}),
                             **{self.name: value})


def domains(cls):
    """The domain each field of the dataclass ``cls`` declares."""
    return {item.name: item.metadata[DOMAIN] for item in fields(cls)
            if DOMAIN in item.metadata}


DATACLASSES = [SNSConfig, RecoveryPolicy, HotBotConfig, Campaign,
               *FAULT_KINDS]
TABLES = {
    "RetryBudget": RetryBudget.DOMAINS,
    "CircuitBreaker": CircuitBreaker.DOMAINS,
    "HarvestLatencyModel": HarvestLatencyModel.DOMAINS,
    "Link": Link.DOMAINS,
    "AccessLink": AccessLink.DOMAINS,
    "FaultWindow": FaultWindow.DOMAINS,
    **{f"PlaybackEngine.{mode}": table
       for mode, table in PlaybackEngine.DOMAINS.items()},
    **{f"HotBot.{method}": table
       for method, table in HotBot.DOMAINS.items()},
    "PartitionMap": PartitionMap.DOMAINS,
    "Lottery": Lottery.DOMAINS,
    "SizeModel": SizeModel.DOMAINS,
    **{f"TraceGenerator.{method}": table
       for method, table in TraceGenerator.DOMAINS.items()},
    "DocumentUniverse": DocumentUniverse.DOMAINS,
    "iter_fixed_jpeg_trace": FIXED_JPEG_DOMAINS,
    "Corpus": Corpus.DOMAINS,
    "InvertedIndex": InvertedIndex.DOMAINS,
    "QueryCache": QueryCache.DOMAINS,
    "LRUCache": LRUCache.DOMAINS,
}
CASES = [Case(cls.__name__, name, domain)
         for cls in DATACLASSES for name, domain in domains(cls).items()]
CASES += [Case(owner, name, domain) for owner, table in TABLES.items()
          for name, domain in table.items()]
BY_KEY = {case.key: case for case in CASES}


# -- drawing values inside and outside a domain --------------------------------

def inside(domain):
    """Values the domain admits, at sizes a deployment would use."""
    if isinstance(domain, Choice):
        drawn = st.sampled_from(domain.values)
    elif domain.integer:
        drawn = st.integers(domain.lo + domain.lo_open,
                            domain.hi if domain.hi is not None
                            else domain.lo + 1000)
    else:
        top = domain.hi if domain.hi is not None else domain.lo + 1e6
        drawn = st.floats(domain.lo, top, exclude_min=domain.lo_open,
                          exclude_max=domain.hi_open, allow_nan=False,
                          allow_subnormal=False)
        least = math.floor(domain.lo) + 1 if domain.lo_open \
            else math.ceil(domain.lo)
        most = math.ceil(top) - 1 if domain.hi_open else math.floor(top)
        if least <= most:
            drawn |= st.integers(least, most)
    return drawn | st.none() if domain.optional else drawn


def outside(domain):
    """Values the domain refuses: NaN and the infinities, values past
    either bound (the bound itself when open), a non-``int`` or a
    ``bool`` where a count goes, a value of the wrong kind, and None
    unless the domain is optional."""
    wrong_kind = st.text(max_size=6).map(lambda text: "~" + text)
    if isinstance(domain, Choice):
        drawn = wrong_kind | st.sampled_from(
            [value for value in (0, 1, 0.0, 2.5)
             if all(type(value) is not type(allowed)
                    for allowed in domain.values)])
        unset = None not in domain.values
    else:
        drawn = (wrong_kind | st.booleans()
                 | st.sampled_from([math.nan, math.inf, -math.inf])
                 | st.floats(max_value=domain.lo,
                             exclude_max=not domain.lo_open,
                             allow_nan=False, allow_infinity=False))
        if domain.hi is not None:
            drawn |= st.floats(min_value=domain.hi,
                               exclude_min=not domain.hi_open,
                               allow_nan=False, allow_infinity=False)
        if domain.integer:
            top = domain.hi if domain.hi is not None else domain.lo + 1000
            whole = st.integers(domain.lo, top)
            drawn |= (st.integers(max_value=domain.lo - 1)
                      | whole.map(float)
                      | whole.map(lambda number: number + 0.5))
        unset = True
    return drawn | st.none() if unset and not domain.optional else drawn


def refuse(case, value):
    with pytest.raises(ValueError) as raised:
        case.build(value)
    assert f"{case.name}=" in str(raised.value)


DRAWS = settings(derandomize=True, max_examples=8, deadline=None)


# -- the tests ------------------------------------------------------------------

def test_the_registry_covers_every_owner():
    assert {cls.__name__: len(fields(cls)) for cls in DATACLASSES[:4]} == {
        "SNSConfig": 37, "RecoveryPolicy": 15, "HotBotConfig": 9,
        "Campaign": 19}
    assert len(FAULT_KINDS) == 16
    assert set(TABLES) | {kind.__name__ for kind in DATACLASSES} \
        == set(MAKERS)


@pytest.mark.parametrize("cls", DATACLASSES, ids=lambda cls: cls.__name__)
def test_every_field_declares_a_domain_or_is_listed(cls):
    assert {item.name for item in fields(cls)} - set(domains(cls)) \
        == UNDECLARED.get(cls.__name__, set())


@pytest.mark.parametrize("owner", UNCHECKED)
def test_every_argument_declares_a_domain_or_is_listed(owner):
    if owner == "iter_fixed_jpeg_trace":
        checked, table = iter_fixed_jpeg_trace, FIXED_JPEG_DOMAINS
    else:
        cls_name, method = owner.split(".")
        cls = {"RetryBudget": RetryBudget, "CircuitBreaker": CircuitBreaker,
               "HarvestLatencyModel": HarvestLatencyModel, "Link": Link,
               "FaultWindow": FaultWindow, "HotBot": HotBot,
               "PartitionMap": PartitionMap,
               "PlaybackEngine": PlaybackEngine,
               "TraceGenerator": TraceGenerator,
               "DocumentUniverse": DocumentUniverse, "Corpus": Corpus,
               "InvertedIndex": InvertedIndex, "QueryCache": QueryCache,
               "LRUCache": LRUCache}[cls_name]
        checked = getattr(cls, method)
        table = (cls.DOMAINS[method]
                 if cls in (PlaybackEngine, HotBot, TraceGenerator)
                 else cls.DOMAINS)
    parameters = set(inspect.signature(checked).parameters)
    if owner == "PlaybackEngine.ramp":
        # the table names the pair of each schedule step
        parameters = parameters - {"schedule"} | {"duration_s", "rate_rps"}
    assert parameters - {"self"} - set(table) == UNCHECKED[owner]
    assert set(table) <= parameters


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.key)
@DRAWS
@given(data=st.data())
def test_a_value_outside_the_domain_is_refused_naming_it(case, data):
    refuse(case, data.draw(outside(case.domain)))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.key)
@DRAWS
@given(data=st.data())
def test_a_value_inside_the_domain_is_accepted(case, data):
    case.build(data.draw(inside(case.domain)))


def refusals():
    return st.sampled_from(CASES).flatmap(
        lambda case: st.tuples(st.just(case.key), outside(case.domain)))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(refusal=refusals())
# each of these was accepted once; the four fault rows then failed with
# a TypeError when they fired, in the middle of a run
@example(refusal=("RetryBudget.ratio", math.nan))
@example(refusal=("CircuitBreaker.failure_threshold", 1.5))
@example(refusal=("CircuitBreaker.cooldown_s", math.nan))
@example(refusal=("CircuitBreaker.slow_s", math.inf))
@example(refusal=("HarvestLatencyModel.miss_alpha", math.inf))
@example(refusal=("HarvestLatencyModel.mean_hit_s", math.inf))
@example(refusal=("RecoveryPolicy.restart_budget", 2.5))
@example(refusal=("LossyWindow.jitter_s", math.inf))
@example(refusal=("KillBrick.slot", 0.5))
@example(refusal=("GrayBrick.slot", 1.5))
@example(refusal=("GrayWorker.victim", 0.5))
@example(refusal=("CrashSearchNode.partition", 1.5))
@example(refusal=("Link.bandwidth_bps", math.nan))
@example(refusal=("Link.latency_s", math.inf))
# each of these gave an empty trace, NaN timestamps, or an IndexError or
# math domain error part-way through generation
@example(refusal=("TraceGenerator.__init__.mean_rate_rps", math.nan))
@example(refusal=("TraceGenerator.__init__.mean_rate_rps", -5))
@example(refusal=("TraceGenerator.__init__.burst_sigma", math.nan))
@example(refusal=("TraceGenerator.generate.duration_s", math.nan))
@example(refusal=("TraceGenerator.generate.duration_s", -3))
@example(refusal=("iter_fixed_jpeg_trace.rate_rps", math.nan))
@example(refusal=("DocumentUniverse.n_shared_docs", 0))
@example(refusal=("DocumentUniverse.n_private_per_user", 0))
# a negative weight unsorts the running sums the lottery bisects
@example(refusal=("Lottery.weights", -1.0))
# each of these made every score NaN, a cache that never evicts or
# never serves a page, a one-document corpus, or a corpus that died
# part-way through generation with an unnamed conversion error
@example(refusal=("InvertedIndex.total_corpus_size", math.nan))
@example(refusal=("LRUCache.capacity_bytes", math.nan))
@example(refusal=("QueryCache.capacity_bytes", math.nan))
@example(refusal=("QueryCache.depth", 2.5))
@example(refusal=("QueryCache.depth", math.nan))
@example(refusal=("Corpus.zipf_alpha", math.nan))
@example(refusal=("Corpus.mean_length", math.nan))
@example(refusal=("Corpus.mean_length", math.inf))
@example(refusal=("Corpus.n_docs", True))
def test_the_known_holes_stay_shut(refusal):
    key, value = refusal
    refuse(BY_KEY[key], value)


def test_a_refusal_reads_name_value_must_be():
    with pytest.raises(ValueError) as raised:
        RetryBudget(math.nan, 5)
    assert str(raised.value) == "ratio=nan must be finite and >= 0"
