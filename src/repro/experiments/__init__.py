"""Experiment drivers, and the one table that names them.

:data:`EXPERIMENTS` maps each experiment's name to an
:class:`Experiment` row: its description, its driver function and the
driver's keyword arguments at full and at quick scale.  It is the only
place an experiment is defined: the CLI's ``list`` and ``run``, the
figure benches (``benchmarks/test_bench_experiments.py``) and the
reachability tool iterate it.  DESIGN.md section 4 maps each row to
the paper; EXPERIMENTS.md records paper-claimed vs measured values
from a full run.

Each driver is a parameterized function returning a structured result
object whose ``render()`` prints the paper's shape (rows of Table 2,
the Figure 5 histogram, Figure 8 queue-length series, ...); the result
classes are imported from the driver modules.

The package re-exports the driver functions the rows name, and imports
a driver module when one of them is first asked for
(:mod:`repro._lazy`), so importing the table, the shared harness or the
CLI loads no driver.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from importlib import import_module
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro._lazy import lazy_exports


@dataclass(frozen=True)
class Experiment:
    """One paper table or figure.  ``driver`` is ``"module:function"``,
    the module relative to this package when it starts with a dot;
    ``full`` and ``quick`` are the driver's keyword arguments at the
    two scales, read-only."""

    description: str
    driver: str
    full: Mapping[str, Any] = field(default_factory=dict)
    quick: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "full", MappingProxyType(dict(self.full)))
        object.__setattr__(self, "quick",
                           MappingProxyType(dict(self.quick)))

    @property
    def function(self) -> Callable[..., Any]:
        """The driver; its module is imported on first use."""
        module, name = self.driver.split(":")
        return getattr(import_module(module, __name__), name)

    def accepts(self, parameter: str) -> bool:
        return parameter in inspect.signature(self.function).parameters

    def run(self, seed: int, quick: bool = False, jobs: int = 1,
            policy: Optional[str] = None) -> Any:
        """The driver's result at one scale.  ``seed`` and ``jobs`` go
        to a driver whose signature takes them (a single-unit study has
        no ``jobs``); ``policy`` runs that one arm as
        ``policies=(policy,)``, and a driver without that parameter
        raises ``TypeError``."""
        kwargs = dict(self.quick if quick else self.full)
        kwargs.update((key, value)
                      for key, value in (("seed", seed), ("jobs", jobs))
                      if self.accepts(key))
        if policy is not None:
            kwargs["policies"] = (policy,)
        return self.function(**kwargs)


EXPERIMENTS: Dict[str, Experiment] = {
    "figure5": Experiment(
        "content-size distributions (Figure 5)",
        ".figure5_sizes:run_figure5",
        full=dict(n_records=100_000), quick=dict(n_records=20_000)),
    "figure6": Experiment(
        "request-rate burstiness (Figure 6)",
        ".figure6_burstiness:run_figure6",
        full=dict(duration_s=86_400.0), quick=dict(duration_s=4 * 3600.0)),
    "figure7": Experiment(
        "distillation latency vs size (Figure 7)",
        ".figure7_distiller:run_figure7",
        full=dict(n_items=100_000), quick=dict(n_items=20_000)),
    "figure8": Experiment(
        "self-tuning and fault recovery (Figure 8)",
        ".figure8_selftuning:run_figure8",
        full=dict(peak_rate_rps=60.0),
        quick=dict(duration_s=200.0, kill_at_s=120.0)),
    "table1": Experiment(
        "TranSend vs HotBot differences (Table 1)",
        ".table1_comparison:run_table1"),
    "table2": Experiment(
        "scalability sweep (Table 2)",
        ".table2_scalability:run_table2",
        quick=dict(rates=(15, 35, 55, 75, 95), step_duration_s=20.0)),
    "cache": Experiment(
        "cache-size hit-rate sweep (Section 4.4)",
        ".cache_hitrate:run_cache_size_sweep",
        full=dict(capacities_bytes=(2_000_000, 8_000_000, 32_000_000,
                                    128_000_000, 512_000_000,
                                    2_048_000_000),
                  n_requests=120_000),
        quick=dict(n_users=300, n_requests=25_000)),
    "population": Experiment(
        "population hit-rate sweep (Section 4.4)",
        ".cache_hitrate:run_population_sweep",
        quick=dict(populations=(25, 100, 400, 1600), requests_per_user=40)),
    "frontend-state": Experiment(
        "front-end state accounting (Section 4.4)",
        ".frontend_state:run_frontend_state",
        quick=dict(rate_rps=10.0, duration_s=90.0)),
    "manager": Experiment(
        "manager announcement capacity (Section 4.6)",
        ".manager_capacity:run_manager_capacity",
        quick=dict(duration_s=10.0)),
    "san": Experiment(
        "SAN saturation + utility-network remedy (Section 4.6)",
        ".san_saturation:run_san_saturation",
        quick=dict(duration_s=30.0)),
    "faults": Experiment(
        "process-peer fault timeline (Section 3.1.3)",
        ".fault_timeline:run_fault_timeline",
        quick=dict(rate_rps=10.0)),
    "hotbot": Experiment(
        "HotBot graceful degradation",
        ".hotbot_degradation:run_hotbot_degradation",
        quick=dict(n_nodes=8, n_docs=800)),
    "hotbot-throughput": Experiment(
        "HotBot 'millions of queries per day'",
        ".hotbot_throughput:run_hotbot_throughput",
        quick=dict(offered_qps=30.0, duration_s=20.0, n_workers=8,
                   n_docs=1500)),
    "policies": Experiment(
        "routing-policy tail-latency sweep (repro.balance)",
        ".policy_sweep:run_policy_sweep",
        quick=dict(n_requests=20_000)),
    "economics": Experiment(
        "economic feasibility (Section 5.2)",
        ".economics:run_economics",
        full=dict(n_requests=40_000),
        quick=dict(n_users=100, n_requests=5_000)),
    "endtoend": Experiment(
        "end-to-end latency reduction (the Section 1.1 headline)",
        ".endtoend_latency:run_endtoend",
        quick=dict(n_requests=150)),
    "flash-crowd": Experiment(
        "brownout controller vs binary shed under a 10x burst "
        "(repro.degrade)",
        ".flash_crowd:run_flash_crowd"),
}


def _drivers_by_module() -> Dict[str, List[str]]:
    """Each driver module -> the driver functions the rows name in it."""
    modules: Dict[str, List[str]] = {}
    for experiment in EXPERIMENTS.values():
        module, function = experiment.driver.split(":")
        modules.setdefault(module.lstrip("."), []).append(function)
    return modules


_DRIVERS = _drivers_by_module()
__getattr__, __dir__ = lazy_exports(__name__, _DRIVERS)
__all__ = ["EXPERIMENTS", "Experiment",
           *sorted(name for names in _DRIVERS.values() for name in names)]
