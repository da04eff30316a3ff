"""Experiment drivers: one module per paper table or figure.

Each driver is a parameterized function returning a structured result
object with a ``render()`` method that prints the paper's shape (rows of
Table 2, the Figure 5 histogram, Figure 8 queue-length series, ...).
DESIGN.md section 4 is the index mapping each experiment to its driver
and its benchmark; EXPERIMENTS.md records paper-claimed vs measured
values from a full run.

Drivers accept scale knobs so the same code serves quick unit tests and
full benchmark runs.

A driver module is imported when one of its names is first asked for
(:mod:`repro._lazy`), so importing the shared harness or the CLI loads
none of them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "figure5_sizes": ("Figure5Result", "run_figure5"),
    "figure6_burstiness": ("Figure6Result", "run_figure6"),
    "figure7_distiller": ("Figure7Result", "run_figure7"),
    "figure8_selftuning": ("Figure8Result", "run_figure8"),
    "table1_comparison": ("run_table1",),
    "table2_scalability": ("Table2Result", "run_table2"),
    "cache_hitrate": (
        "CacheStudyResult", "run_cache_size_sweep", "run_population_sweep"),
    "manager_capacity": ("ManagerCapacityResult", "run_manager_capacity"),
    "san_saturation": ("SanSaturationResult", "run_san_saturation"),
    "fault_timeline": ("FaultTimelineResult", "run_fault_timeline"),
    "frontend_state": ("FrontEndStateResult", "run_frontend_state"),
    "hotbot_degradation": (
        "HotBotDegradationResult", "run_hotbot_degradation"),
    "hotbot_throughput": (
        "HotBotThroughputResult", "run_hotbot_throughput"),
    "economics": ("run_economics",),
    "policy_sweep": ("PolicySweepResult", "run_policy_sweep"),
    "endtoend_latency": ("EndToEndResult", "run_endtoend"),
    "flash_crowd": ("FlashCrowdResult", "run_flash_crowd"),
})

__all__ = [
    "CacheStudyResult",
    "EndToEndResult",
    "FaultTimelineResult",
    "Figure5Result",
    "Figure6Result",
    "Figure7Result",
    "Figure8Result",
    "FlashCrowdResult",
    "FrontEndStateResult",
    "HotBotDegradationResult",
    "HotBotThroughputResult",
    "ManagerCapacityResult",
    "PolicySweepResult",
    "SanSaturationResult",
    "Table2Result",
    "run_cache_size_sweep",
    "run_economics",
    "run_endtoend",
    "run_fault_timeline",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_flash_crowd",
    "run_frontend_state",
    "run_hotbot_degradation",
    "run_hotbot_throughput",
    "run_manager_capacity",
    "run_policy_sweep",
    "run_population_sweep",
    "run_san_saturation",
    "run_table1",
    "run_table2",
]
