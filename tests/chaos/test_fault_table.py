"""The fault table, row by row (ROADMAP 2(c)'s conformance matrix,
generated from the table rather than written beside it).

Every concrete :class:`~repro.chaos.campaign.Fault` subclass is found by
introspection, so a new fault kind cannot skip this file.  Each one —
each gray mode of it, for the gray kinds — runs alone in a short
one-action campaign under both manager backends, on a ``dstore`` fabric
when it targets a brick and on the ``single`` store as well.  It must
record the kind it declares exactly once (on the fault timeline, in the
recovery ledger, or both) and every invariant must hold.  A fault
whose ``kind`` is None records nothing; its effect is in the counters.
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
    KillBrick,
    get_campaign,
)
from repro.recovery.policy import RecoveryPolicy

FAULT_KINDS = sorted(
    (cls for _, cls in inspect.getmembers(campaign_module, inspect.isclass)
     if issubclass(cls, Fault) and cls is not Fault),
    key=lambda cls: cls.__name__)

#: the kinds that fire in an instant and heal at ``at``.
INSTANT = {"KillWorker", "KillManager", "KillBrick", "GrayWorker",
           "GrayBrick"}

#: the documented no-op (GrayBrick's docstring): the single store has
#: no gray surface.
NO_OPS = {("GrayBrick", "soft", "single"),
          ("GrayBrick", "consensus", "single")}


def field_names(cls):
    return {field.name for field in dataclasses.fields(cls)}


def samples(cls):
    """One instance per row of the table: at t=4, every window 5 s long
    (one rolling-kill period), every gray mode the kind accepts."""
    kwargs = {"at": 4.0}
    if "duration_s" in field_names(cls):
        kwargs["duration_s"] = 5.0
    if "mode" in field_names(cls):
        return [cls(mode=mode, **kwargs) for mode in cls.modes]
    return [cls(**kwargs)]


def stores(cls):
    """A brick fault runs on both stores; the rest on none."""
    return ("dstore", "single") if "slot" in field_names(cls) else (None,)


CASES = [pytest.param(fault, backend, store,
                      id=f"{fault!r}-{backend}-{store}")
         for cls in FAULT_KINDS for fault in samples(cls)
         for backend in ("soft", "consensus") for store in stores(cls)]


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
    ledger = [case.kind for case in runner.ledger.cases]
    if fault.kind is None or \
            (type(fault).__name__, backend, store) in NO_OPS:
        assert timeline == [] and ledger == []
        return
    assert fault.kind in timeline + ledger, (timeline, ledger)
    assert timeline.count(fault.kind) <= 1
    assert ledger.count(fault.kind) <= 1
    if isinstance(fault, KillBrick) and store == "single":
        assert timeline == ["store-kill"]


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
