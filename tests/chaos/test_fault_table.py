"""The fault table, row by row (the fault kinds' conformance matrix,
generated from the table rather than written beside it).

Every concrete :class:`~repro.chaos.campaign.Fault` subclass is found by
introspection, so a new fault kind cannot skip this file.  Each one —
each gray mode of it, for the gray kinds — runs alone in a short
one-action campaign under both manager backends, on a ``dstore`` fabric
when it targets a brick and on the ``single`` store as well.  It must
record the kind it declares exactly once (on the fault timeline, in the
recovery ledger, or both) and every invariant must hold; a kind whose
firings are drawn (:data:`DRAWN`) records it at least once.  A fault
whose ``kind`` is None records nothing; its effect is in the counters.
A HotBot kind (:data:`HOTBOT`) runs on a small HotBot deployment in
both failure modes instead, under a stream of distinct queries.
"""

import dataclasses
import inspect

import pytest

from repro.chaos import campaign as campaign_module
from repro.chaos.campaign import (
    CAMPAIGNS,
    Campaign,
    CampaignRunner,
    Fault,
    Faults,
    KillBrick,
    get_campaign,
)
from repro.hotbot.service import HotBot, HotBotConfig
from repro.recovery.policy import RecoveryPolicy

FAULT_KINDS = sorted(
    (cls for _, cls in inspect.getmembers(campaign_module, inspect.isclass)
     if issubclass(cls, Fault) and cls is not Fault),
    key=lambda cls: cls.__name__)

#: the kinds that fire in an instant and heal at ``at``.
INSTANT = {"KillWorker", "KillManager", "KillFrontEnd", "KillBrick",
           "GrayWorker", "GrayBrick"}

#: the kind whose number of firings is drawn, not scheduled: it must
#: fire, but may fire more than once in its window.
DRAWN = {"RandomKills"}

#: the kinds that break a HotBot, not an SNS fabric.
HOTBOT = {"CrashSearchNode"}

#: the documented no-op (GrayBrick's docstring): the single store has
#: no gray surface.
NO_OPS = {("GrayBrick", "soft", "single"),
          ("GrayBrick", "consensus", "single")}


def field_names(cls):
    return {field.name for field in dataclasses.fields(cls)}


def samples(cls):
    """One instance per row of the table: at t=4, every window 5 s long
    (one rolling-kill period), an upgrade of the first worker's node,
    every gray mode the kind accepts."""
    kwargs = {"at": 4.0}
    if "duration_s" in field_names(cls):
        kwargs["duration_s"] = 5.0
    if "nodes" in field_names(cls):
        kwargs["nodes"] = ("worker:0",)
    if "mode" in field_names(cls):
        return [cls(mode=mode, **kwargs) for mode in cls.modes]
    return [cls(**kwargs)]


def stores(cls):
    """A brick fault runs on both stores; the rest on none."""
    return ("dstore", "single") if "slot" in field_names(cls) else (None,)


CASES = [pytest.param(fault, backend, store,
                      id=f"{fault!r}-{backend}-{store}")
         for cls in FAULT_KINDS if cls.__name__ not in HOTBOT
         for fault in samples(cls)
         for backend in ("soft", "consensus") for store in stores(cls)]

HOTBOT_CASES = [pytest.param(fault, mode, id=f"{fault!r}-{mode}")
                for cls in FAULT_KINDS if cls.__name__ in HOTBOT
                for fault in samples(cls)
                for mode in ("fast-restart", "cross-mount")]


def test_the_table_is_the_module():
    assert {cls.__name__ for cls in FAULT_KINDS} >= INSTANT
    assert all(cls.__module__ == campaign_module.__name__
               for cls in FAULT_KINDS)


@pytest.mark.parametrize("cls", FAULT_KINDS, ids=lambda cls: cls.__name__)
def test_instant_faults_carry_no_duration(cls):
    for fault in samples(cls):
        if cls.__name__ in INSTANT:
            assert "duration_s" not in field_names(cls)
            assert fault.heals_at == fault.at
        else:
            assert fault.heals_at == fault.at + fault.duration_s


@pytest.mark.parametrize("fault,backend,store", CASES)
def test_one_fault_alone_records_its_kind_and_holds_every_invariant(
        fault, backend, store):
    overrides = {"manager_backend": backend}
    if store is not None:
        overrides["profile_backend"] = store
    campaign = Campaign(
        name="one-fault", description=repr(fault),
        duration_s=fault.heals_at + 15.0, actions=(fault,), rate_rps=8.0,
        n_nodes=8, initial_workers=3, settle_s=6.0,
        recovery=RecoveryPolicy(), config_overrides=overrides)
    runner = CampaignRunner(campaign, seed=1997)
    report = runner.run()
    assert report.ok, report.violations

    timeline = [record.kind for record in report.fault_timeline]
    ledger = [case.kind for case in runner.faults.ledger.cases]
    if fault.kind is None or \
            (type(fault).__name__, backend, store) in NO_OPS:
        assert timeline == [] and ledger == []
        return
    assert fault.kind in timeline + ledger, (timeline, ledger)
    if type(fault).__name__ in DRAWN:
        return
    assert timeline.count(fault.kind) <= 1
    assert ledger.count(fault.kind) <= 1
    if isinstance(fault, KillBrick) and store == "single":
        assert timeline == ["store-kill"]


@pytest.mark.parametrize("fault,mode", HOTBOT_CASES)
def test_one_hotbot_fault_records_its_kind_and_heals_in_time(fault, mode):
    """Fast restart: coverage drops while the node is down and is whole
    again one gather deadline after the heal.  Cross-mount: a peer
    serves the partition, so coverage never drops."""
    hotbot = HotBot(HotBotConfig(n_workers=4, n_docs=400,
                                 gather_timeout_s=0.5, failure_mode=mode),
                    seed=1997)
    faults = Faults(hotbot)
    faults.arm((fault,))
    env = hotbot.cluster.env
    answers = []  # (sent at, QueryResult)
    back_by = fault.heals_at + hotbot.config.gather_timeout_s

    def ask(terms):
        sent_at = env.now
        answers.append((sent_at, (yield hotbot.submit(terms))))

    def client():
        # distinct terms: a cached answer would hide the outage
        for number in range(int((back_by + 2.0) / 0.25)):
            yield env.timeout(0.25)
            env.process(ask([f"w{2 + number}"]))

    env.process(client())
    hotbot.run(until=back_by + 5.0)
    assert [record.kind for record in faults.timeline].count(
        fault.kind) == 1
    during = [result for sent_at, result in answers
              if fault.at <= sent_at < fault.heals_at]
    after = [result for sent_at, result in answers if sent_at >= back_by]
    assert during and after
    if mode == "fast-restart":
        assert all(result.coverage < 1.0 for result in during)
        assert all(result.coverage == 1.0 for result in after)
    else:
        assert all(result.coverage == 1.0 for _, result in answers)
        assert all(result.served_by_replica == 1 for result in during)


def test_get_campaign_hands_out_copies():
    """Mutating what get_campaign returned reaches neither CAMPAIGNS nor
    the next get_campaign: the faults and the action tuple are frozen,
    the config mapping and the supervision policy are copies."""
    first = get_campaign("brick-smoke", {"manager_backend": "consensus"})
    first.config_overrides["profile_backend"] = "single"
    first.recovery.probe_interval_s = 99.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.actions[0].at = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.duration_s = 1.0
    with pytest.raises(AttributeError):
        first.actions.append(KillBrick(at=1.0))

    again = get_campaign("brick-smoke")
    for campaign in (CAMPAIGNS["brick-smoke"], again):
        assert campaign.config_overrides == {"profile_backend": "dstore"}
        assert campaign.recovery == RecoveryPolicy()
    # the policy object the supervised presets share is untouched too
    assert CAMPAIGNS["gray-smoke"].recovery == RecoveryPolicy()
    assert again.actions == CAMPAIGNS["brick-smoke"].actions
