"""The per-layer cost ledger: where host time and simulated time go.

Host time is attributed from a `cProfile` run of the replay, folded by
the source file each function lives in: a layer is a set of files of
the program, named after its module.  `cProfile` charges every Python
call and no C code, so shares are a guide to where to look, not a
measurement of what a change will save; the untraced run is the
measurement.

Simulated time is attributed by the program's own span tracer
(`repro.obs`) at sample rate 1/1 and its attribution sweep.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Tuple

from repro.obs import CATEGORIES, build_attribution_report

#: layer -> path fragments (under ``src/repro/``, or this benchmark)
#: of the files whose self time it is charged with.  First match wins,
#: so the specific entries come before the directory-wide ones.
LAYER_FILES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.kernel", ("repro/sim/kernel.py",)),
    ("sim.network", ("repro/sim/network.py", "repro/sim/transport.py",
                     "repro/sim/multicast.py")),
    ("sim.other", ("repro/sim/",)),
    ("workload", ("repro/workload/",)),
    ("core.frontend", ("repro/core/frontend.py", "repro/core/fabric.py")),
    ("core.manager_stub", ("repro/core/manager_stub.py",
                           "repro/degrade/guards.py")),
    ("balance", ("repro/balance/",)),
    ("core.worker_stub", ("repro/core/worker_stub.py",
                          "repro/recovery/gray.py")),
    ("core.manager", ("repro/core/manager.py", "repro/core/monitor.py")),
    ("core.component", ("repro/core/component.py",)),
    ("distillers", ("repro/distillers/",)),
    ("cache", ("repro/cache/", "repro/transend/cachesys.py")),
    ("transend", ("repro/transend/",)),
    ("experiments", ("repro/experiments/",)),
    ("hotbot", ("repro/hotbot/",)),
    ("tacc", ("repro/tacc/",)),
    ("benchmark", ("benchmarks/stack/",)),
)
LAYERS = tuple(layer for layer, _ in LAYER_FILES)


def layer_of(filename: str) -> str:
    """The layer a source file belongs to; C functions are "builtin"
    and everything else (the standard library, and the files of the
    program no workload spends time in) is "unattributed"."""
    if filename == "~":
        return "builtin"
    path = filename.replace("\\", "/")
    for layer, fragments in LAYER_FILES:
        if any(fragment in path for fragment in fragments):
            return layer
    return "unattributed"


class HostLedger:
    """Self time and call counts of one profiled replay, by layer."""

    def __init__(self, profile: cProfile.Profile) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: (file fragment, function name) lookups for call counts
        self._calls: Dict[Tuple[str, str], int] = defaultdict(int)
        for (filename, _line, name), (_cc, ncalls, tottime, _ct, _callers) \
                in pstats.Stats(profile).stats.items():
            self.self_s[layer_of(filename)] += tottime
            self._calls[(filename.replace("\\", "/"), name)] += ncalls
        self.total_s = sum(self.self_s.values())

    def share(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0) / self.total_s

    def calls(self, file_fragment: str, names: Iterable[str]) -> int:
        """Calls of the named functions in files matching the fragment."""
        names = set(names)
        return sum(count for (filename, name), count in self._calls.items()
                   if name in names and file_fragment in filename)


def profiled(run: Callable[[Callable[[Callable[[], None]], None]], Any]
             ) -> Tuple[Any, HostLedger]:
    """Call ``run(around_replay)`` with a hook that profiles exactly the
    replay; returns what ``run`` returned and the folded ledger."""
    profile = cProfile.Profile()

    def around_replay(replay: Callable[[], None]) -> None:
        profile.enable()
        try:
            replay()
        finally:
            profile.disable()

    result = run(around_replay)
    return result, HostLedger(profile)


def simulated_time_split(tracer: Any) -> Dict[str, float]:
    """Mean simulated milliseconds per traced request, by attribution
    category; the categories partition each request's latency, so the
    values sum to the mean latency of the traced requests."""
    means = build_attribution_report(tracer).mean_components()
    return {category: means.get(category, 0.0) * 1000.0
            for category in CATEGORIES}


def span_mean_ms(tracer: Any, name: str, per: int) -> float:
    """Total duration of finished spans called ``name`` divided by
    ``per`` requests, in simulated milliseconds."""
    total = sum(span.duration for span in tracer.all_spans()
                if span.name == name and span.finished)
    return total * 1000.0 / per


def slowest_leg_mean_ms(tracer: Any) -> float:
    """Mean over traced HotBot queries of the longest scatter leg."""
    slowest = []
    for spans in tracer.spans.values():
        legs = [span.duration for span in spans
                if span.name.startswith("search:p") and span.finished]
        if legs:
            slowest.append(max(legs))
    return sum(slowest) * 1000.0 / len(slowest) if slowest else 0.0
