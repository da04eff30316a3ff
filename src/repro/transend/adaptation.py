"""Network-aware distillation tuning (Section 5.4 future work).

"Our past work on adaptation via distillation described how distillation
could be dynamically tuned to match the behavior of the user's network
connection ... we plan to leverage these mechanisms to provide an
adaptive solution for Web access from wireless clients."

Two pieces:

* :class:`BandwidthEstimator` — per-client EWMA of delivered throughput,
  fed by observed (bytes, seconds) response transfers; this is the
  event-notification substrate's job in the original work.
* :class:`AdaptationPolicy` — maps estimated bandwidth to distillation
  parameters: a 14.4 kbit/s modem gets aggressive scaling and low
  quality; a LAN client gets its content untouched.  The policy adjusts
  a user's *effective* preferences; their stored (ACID) profile is never
  mutated — adaptation is BASE all the way down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: modem-bank reality at Berkeley: 14.4 and 28.8 kbit/s modems.
MODEM_14_4_BPS = 14_400 / 8
MODEM_28_8_BPS = 28_800 / 8


class BandwidthEstimator:
    """Per-client EWMA throughput estimates from observed transfers."""

    def __init__(self, alpha: float = 0.3,
                 default_bps: float = MODEM_28_8_BPS) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if default_bps <= 0:
            raise ValueError("default bandwidth must be positive")
        self.alpha = alpha
        self.default_bps = default_bps
        self._estimates: Dict[str, float] = {}
        self.observations = 0

    def observe(self, client_id: str, bytes_sent: int,
                elapsed_s: float) -> None:
        """Record one completed response transfer."""
        if elapsed_s <= 0 or bytes_sent <= 0:
            return
        sample = bytes_sent / elapsed_s
        current = self._estimates.get(client_id)
        if current is None:
            self._estimates[client_id] = sample
        else:
            self._estimates[client_id] = (
                self.alpha * sample + (1 - self.alpha) * current)
        self.observations += 1

    def bandwidth_bps(self, client_id: str) -> float:
        return self._estimates.get(client_id, self.default_bps)


@dataclass(frozen=True)
class AdaptationTier:
    """One rung of the adaptation ladder."""

    max_bandwidth_bps: float
    quality: int
    scale: int
    label: str


#: The ladder, slowest first.  Thresholds in bytes/second.
DEFAULT_TIERS: Tuple[AdaptationTier, ...] = (
    AdaptationTier(MODEM_14_4_BPS * 1.2, quality=5, scale=4,
                   label="14.4k modem"),
    AdaptationTier(MODEM_28_8_BPS * 1.2, quality=15, scale=3,
                   label="28.8k modem"),
    AdaptationTier(16_000.0, quality=25, scale=2, label="ISDN-ish"),
    AdaptationTier(125_000.0, quality=50, scale=2, label="T1 share"),
    AdaptationTier(float("inf"), quality=90, scale=1, label="LAN"),
)


class AdaptationPolicy:
    """Bandwidth -> distillation parameters."""

    def __init__(self, estimator: Optional[BandwidthEstimator] = None,
                 tiers: Tuple[AdaptationTier, ...] = DEFAULT_TIERS
                 ) -> None:
        if not tiers:
            raise ValueError("at least one tier required")
        thresholds = [tier.max_bandwidth_bps for tier in tiers]
        if thresholds != sorted(thresholds):
            raise ValueError("tiers must be ordered by bandwidth")
        if thresholds[-1] != float("inf"):
            raise ValueError("last tier must be unbounded")
        self.estimator = estimator or BandwidthEstimator()
        self.tiers = tiers

    def tier_for(self, bandwidth_bps: float) -> AdaptationTier:
        for tier in self.tiers:
            if bandwidth_bps <= tier.max_bandwidth_bps:
                return tier
        return self.tiers[-1]

    def adapt(self, client_id: str,
              preferences: Dict[str, object]) -> Dict[str, object]:
        """Effective preferences for this client *right now*.

        Explicit user choices win: adaptation only fills parameters the
        user left at their defaults (``quality``/``scale`` not present
        in the stored profile).  The stored profile itself is never
        written — approximate, regenerable, BASE.
        """
        tier = self.tier_for(self.estimator.bandwidth_bps(client_id))
        adapted = dict(preferences)
        if not preferences.get("_user_set_quality"):
            adapted["quality"] = tier.quality
        if not preferences.get("_user_set_scale"):
            adapted["scale"] = tier.scale
        adapted["_adaptation_tier"] = tier.label
        return adapted
