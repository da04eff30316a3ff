"""Chaos campaigns: stress the soft-state claims where they matter.

The paper argues that soft state + timeouts + process peers survive any
single fault with no recovery protocol (Sections 2.2.4, 3.1.3, 4.5) —
but its testbed only ever produced *clean* faults over a perfectly
reliable SAN.  This package builds the machinery to prove (or falsify)
the claim under the regimes that actually break cluster systems: lost
beacons, dropped load reports, duplicated datagrams, delay jitter,
slow-but-not-dead nodes, and overlapping fault sequences.

* :mod:`repro.chaos.campaign` — the fault table (one frozen row per
  fault kind, fired through :class:`~repro.chaos.campaign.Faults` on
  any fabric) and the campaigns that schedule sequences and mixes of
  rows against a running one;
* :mod:`repro.chaos.invariants` — an online checker asserting the
  paper's soft-state guarantees during and after each campaign;
* :mod:`repro.chaos.report` — harvest/yield availability accounting
  quantifying graceful degradation per fault window;
* :mod:`repro.chaos.batch` — multi-seed campaign batches fanned out
  across worker processes (:mod:`repro.fanout`) with deterministic
  report folding.

Each of these modules is imported when one of its names is first asked
for (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "batch": ("CampaignBatchReport", "batch_seeds", "run_campaign_batch"),
    "campaign": (
        "CAMPAIGNS", "AsymmetricLink", "Campaign", "CampaignRunner",
        "CrashSearchNode", "CrashWorkerNode", "Faults", "GrayBrick", "GrayWorker", "KillBrick",
        "KillFrontEnd", "KillManager", "KillWorker", "LossyWindow",
        "PartitionSAN", "PartitionWorker", "RandomKills", "RollingKills",
        "RollingUpgrade", "Straggle", "get_campaign", "run_campaign"),
    "invariants": ("InvariantChecker", "InvariantViolation"),
    "report": ("ChaosReport",),
})

__all__ = [
    "CAMPAIGNS",
    "Campaign",
    "CampaignBatchReport",
    "CampaignRunner",
    "ChaosReport",
    "batch_seeds",
    "run_campaign_batch",
    "AsymmetricLink",
    "CrashSearchNode",
    "CrashWorkerNode",
    "Faults",
    "GrayBrick",
    "GrayWorker",
    "InvariantChecker",
    "InvariantViolation",
    "KillBrick",
    "KillFrontEnd",
    "KillManager",
    "KillWorker",
    "LossyWindow",
    "PartitionSAN",
    "PartitionWorker",
    "RandomKills",
    "RollingKills",
    "RollingUpgrade",
    "Straggle",
    "get_campaign",
    "run_campaign",
]
