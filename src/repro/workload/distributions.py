"""Content-size and MIME-mix models calibrated to Figure 5.

Figure 5's published facts, which these models are tuned to match:

* average content lengths — HTML 5131 B, GIF 3428 B, JPEG 12070 B;
* the GIF distribution has **two plateaus**: one under 1 KB (icons,
  bullets) and one over 1 KB (photos, cartoons), and the paper's 1 KB
  distillation threshold "exactly separates these two classes";
* the JPEG distribution "falls off rapidly under the 1 KB mark";
* "most content accessed on the web is small (considerably less than
  1 KB), but the average byte transferred is part of large content
  (3-12 KB)".

GIF is a 50/50 mixture of an icon mode (mean ≈ 350 B) and a photo mode
(mean ≈ 6.5 KB); HTML and JPEG are single log-normals, JPEG truncated
below 1 KB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.domains import between, check_args, positive
from repro.sim.rng import Lottery, Stream
from repro.tacc.content import MIME_GIF, MIME_HTML, MIME_JPEG, MIME_OCTET

#: Published mean sizes (bytes), Figure 5 caption.
MEAN_HTML = 5131
MEAN_GIF = 3428
MEAN_JPEG = 12070

#: Published MIME shares, Section 4.1.
SHARE_GIF = 0.50
SHARE_HTML = 0.22
SHARE_JPEG = 0.18
SHARE_OTHER = 1.0 - SHARE_GIF - SHARE_HTML - SHARE_JPEG


@dataclass(frozen=True)
class Mode:
    """One log-normal component of a size distribution."""

    mean: float
    sigma: float
    weight: float = 1.0
    min_bytes: int = 32
    max_bytes: int = 2_000_000


class SizeModel:
    """Mixture-of-log-normals size distribution for one MIME type."""

    #: each mode's domain (its weight is the lottery's); the log of the
    #: mean is taken once, and a wider spread would overflow ``exp``
    DOMAINS = {"mean": positive(), "sigma": between(0.0, 10.0)}

    def __init__(self, modes: List[Mode]) -> None:
        if not modes:
            raise ValueError("at least one mode required")
        for mode in modes:
            check_args(self.DOMAINS, mean=mode.mean, sigma=mode.sigma)
        weights = [mode.weight for mode in modes]
        total = Lottery.checked_total(weights)
        #: the modes by weight, each as the log-normal's ``(mu, sigma)``
        #: for its mean (see ``Stream.lognormal_mean``) and its bounds
        self.lottery: Lottery[Tuple[float, float, int, int]] = Lottery(
            [(math.log(mode.mean) - mode.sigma * mode.sigma / 2.0,
              mode.sigma, mode.min_bytes, mode.max_bytes)
             for mode in modes],
            [weight / total for weight in weights])

    def sample(self, rng: Stream) -> int:
        mu, sigma, min_bytes, max_bytes = self.lottery.draw(rng)
        size = rng.lognormal(mu, sigma)
        return int(max(min_bytes, min(max_bytes, size)))


def default_size_models() -> Dict[str, SizeModel]:
    """Per-MIME size models matching the Figure 5 calibration targets.

    Mode means are set slightly below the published targets because
    truncation at ``min_bytes``/``max_bytes`` shifts the realized mean;
    the calibration test in ``tests/workload`` checks the *realized*
    means against the paper's numbers.
    """
    return {
        MIME_HTML: SizeModel([
            Mode(mean=MEAN_HTML, sigma=1.1, min_bytes=128),
        ]),
        MIME_GIF: SizeModel([
            # icon plateau: bullets, rules, spacers — all under 1 KB
            Mode(mean=350, sigma=0.7, weight=0.5, min_bytes=35,
                 max_bytes=1000),
            # photo plateau: images worth distilling
            Mode(mean=6500, sigma=0.9, weight=0.5, min_bytes=1024),
        ]),
        MIME_JPEG: SizeModel([
            # single mode, truncated below 1 KB ("falls off rapidly
            # under the 1KB mark")
            Mode(mean=MEAN_JPEG, sigma=0.9, min_bytes=1024),
        ]),
        MIME_OCTET: SizeModel([
            Mode(mean=4000, sigma=1.2, min_bytes=64),
        ]),
    }


class MimeMix:
    """Categorical distribution over MIME types."""

    def __init__(self, shares: Dict[str, float]) -> None:
        if not shares:
            raise ValueError("shares must be non-empty")
        total = Lottery.checked_total(list(shares.values()))
        self.lottery: Lottery[str] = Lottery(
            list(shares), [share / total for share in shares.values()])

    def sample(self, rng: Stream) -> str:
        return self.lottery.draw(rng)


def default_mime_mix() -> MimeMix:
    return MimeMix({
        MIME_GIF: SHARE_GIF,
        MIME_HTML: SHARE_HTML,
        MIME_JPEG: SHARE_JPEG,
        MIME_OCTET: SHARE_OTHER,
    })


#: the Figure 5 histogram's buckets: eight per decade, 10 B to 10 MB
BINS_PER_DECADE = 8
MAX_EXPONENT = 7


def size_histogram(sizes: List[int]) -> List[Tuple[float, float]]:
    """Log-bucketed probability histogram — the Figure 5 rendering.

    Returns (bucket center in bytes, probability mass) pairs.
    """
    if not sizes:
        return []
    edges = [
        10 ** (exponent / BINS_PER_DECADE)
        for exponent in range(1 * BINS_PER_DECADE,
                              MAX_EXPONENT * BINS_PER_DECADE + 1)
    ]
    counts = [0] * (len(edges) + 1)
    for size in sizes:
        index = 0
        while index < len(edges) and size > edges[index]:
            index += 1
        counts[index] += 1
    total = len(sizes)
    result = []
    previous_edge = 10.0
    for index, edge in enumerate(edges):
        center = math.sqrt(previous_edge * edge)
        result.append((center, counts[index] / total))
        previous_edge = edge
    return result
