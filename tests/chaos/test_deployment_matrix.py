"""The deployment matrix: the ``smoke`` campaign must hold its
invariants under every manager backend x routing policy x profile store
— each cell is one ``config_overrides`` mapping, so the matrix is
enumerated, not hand-written.  (First instalment of ROADMAP 2(c).)

A cell that stops holding is a finding to fix, not a cell to skip.
"""

import itertools

import pytest

from repro.chaos import CampaignRunner, get_campaign, run_campaign_batch

MANAGERS = ("soft", "consensus")
POLICIES = ("lottery", "ewma+eject", "hash-bounded")
STORES = (None, "single", "dstore")
CELLS = [dict(manager_backend=manager, routing_policy=policy,
              profile_backend=store)
         for manager, policy, store
         in itertools.product(MANAGERS, POLICIES, STORES)]


def cell_id(cell):
    return "-".join(str(value) for value in cell.values())


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_smoke_holds_its_invariants_in_every_cell(cell):
    runner = CampaignRunner(get_campaign("smoke", cell), seed=1997)
    report = runner.run()
    assert report.ok, report.violations
    fabric = runner.fabric
    # the config reports the cell it was asked for...
    assert {field: getattr(fabric.config, field) for field in cell} == cell
    # ...and the cell is what ran
    assert (fabric.consensus is not None) \
        == (cell["manager_backend"] == "consensus")
    assert {fe.stub.policy.name for fe in fabric.frontends.values()} \
        == {cell["routing_policy"]}
    assert (fabric.profile_store is not None) \
        == (cell["profile_backend"] is not None)
    assert (fabric.profile_bricks is not None) \
        == (cell["profile_backend"] == "dstore")
    assert report.profile.get("backend") == cell["profile_backend"]


def test_single_run_and_one_run_batch_apply_overrides_alike():
    """Both arms of ``repro chaos`` go through ``get_campaign(name,
    overrides)``: the same overrides must give the same report."""
    overrides = dict(manager_backend="consensus",
                     routing_policy="ewma+eject",
                     profile_backend="single")
    single = CampaignRunner(get_campaign("smoke", overrides),
                            seed=1997).run()
    batch = run_campaign_batch("smoke", master_seed=1997, runs=1,
                               overrides=overrides)
    assert [report.render() for report in batch.reports] \
        == [single.render()]
    # and the overrides did something: the preset alone differs
    assert CampaignRunner(get_campaign("smoke"),
                          seed=1997).run().render() != single.render()
