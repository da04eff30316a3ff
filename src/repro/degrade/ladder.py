"""The degradation ladder: ordered service modes, full to brownout.

Each level *adds* one degraded behaviour on top of everything below
it; de-escalation retraces the same rungs in reverse.  The order is
chosen so the cheapest harvest is spent first:

===  ===================  ==============================================
lvl  name                 what degrades
===  ===================  ==============================================
0    full                 nothing — normal service
1    reduced-fidelity     distillation forced to the 14.4k-modem
                          setting cluster-wide (cheaper per request)
2    serve-stale          cached results past their fresh TTL are
                          served instead of recomputed
3    relaxed-reads        profile reads at R=1 instead of quorum
                          (degraded harvest; writes stay quorum)
4    priority-admission   batch/crawler-class requests are refused
5    deadline-shed        probabilistic shedding of work unlikely to
                          meet its deadline anyway
===  ===================  ==============================================
"""

from __future__ import annotations

from typing import Tuple

#: ladder level names, indexed by level number.
LEVELS: Tuple[str, ...] = (
    "full",
    "reduced-fidelity",
    "serve-stale",
    "relaxed-reads",
    "priority-admission",
    "deadline-shed",
)

#: the highest ladder level.
MAX_LEVEL = len(LEVELS) - 1

#: the distillation settings forced cluster-wide from level 1 up: the
#: 14.4 kbit/s modem setting, JPEG quality 5 at a 4x downscale
REDUCED_FIDELITY_PARAMS = {"quality": 5, "scale": 4}


def level_name(level: int) -> str:
    """Human-readable name for a ladder level (clamped to the range)."""
    return LEVELS[max(0, min(level, MAX_LEVEL))]
