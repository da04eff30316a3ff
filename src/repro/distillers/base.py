"""Distiller base class and the Section 4.3 latency model.

"For the GIF distiller, there is an approximately linear relationship
between distillation time and input size, although a large variation in
distillation time is observed for any particular data size.  The slope of
this relationship is approximately 8 milliseconds per kilobyte of input."

:class:`DistillerLatencyModel` captures exactly that: a fixed overhead, a
per-kilobyte slope, and a log-normal noise multiplier for the observed
variation.  ``mean(size)`` feeds capacity planning (how many requests/sec
a distiller can absorb — the paper's ≈23 req/s at 10 KB inputs includes
queueing; the raw service rate here is higher); ``sample(rng, size)`` is
what the simulated worker actually charges the node per request.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.sim.rng import Stream
from repro.tacc.content import Content, ZeroPayload
from repro.tacc.worker import TACCRequest, Transformer


class DistillerLatencyModel:
    """latency = (fixed + slope * input_kb) * lognormal-noise."""

    def __init__(self, slope_s_per_kb: float, fixed_s: float = 0.005,
                 noise_sigma: float = 0.45) -> None:
        if slope_s_per_kb < 0 or fixed_s < 0:
            raise ValueError("latency parameters must be non-negative")
        self.slope_s_per_kb = slope_s_per_kb
        self.fixed_s = fixed_s
        self.noise_sigma = noise_sigma

    def mean(self, size_bytes: int) -> float:
        return self.fixed_s + self.slope_s_per_kb * (size_bytes / 1024.0)

    def sample(self, rng: Stream, size_bytes: int) -> float:
        noise = rng.lognormal(-self.noise_sigma ** 2 / 2.0,
                              self.noise_sigma)
        return self.mean(size_bytes) * noise


#: Calibrated slopes.  GIF is the paper's measured 8 ms/KB (Figure 7);
#: JPEG skips the GIF-decode step and is calibrated so one distiller
#: sustains the ~23 requests/second on 10 KB inputs that Table 2
#: measures (0.008 s + 0.0035 s/KB * 10 KB = 43 ms per request); the
#: HTML munger "is far more efficient" than the image distillers.
GIF_SLOPE_S_PER_KB = 0.008
JPEG_SLOPE_S_PER_KB = 0.0035
HTML_SLOPE_S_PER_KB = 0.0004
JPEG_FIXED_S = 0.008


def predicted_image_reduction(scale: int, quality: int,
                              codec_bonus: float = 1.0) -> float:
    """Size-reduction factor of the image distillers' real codec.

    Calibrated against :mod:`repro.distillers.images`: scaling divides
    pixels by ``scale**2`` and quantization at quality q adds roughly a
    ``1 + (100 - q) * 0.008`` entropy win; converting from the less
    efficient GIF coding adds ``codec_bonus``.
    """
    quality_gain = 1.0 + max(0, 100 - quality) * 0.008
    return max(1.0, scale * scale * quality_gain * codec_bonus)


class Distiller(Transformer):
    """A transformation worker with a calibrated latency model."""

    latency_model = DistillerLatencyModel(GIF_SLOPE_S_PER_KB)
    #: extra size win when the input codec is less efficient than the
    #: output codec (GIF -> JPEG conversion); 1.0 for same-codec.
    codec_bonus = 1.0
    simulated_mime: str = ""

    def work_estimate(self, request: TACCRequest) -> float:
        # once per request, on one input: no generator for a sum of one
        inputs = request.inputs
        return self.latency_model.mean(
            inputs[0].size if len(inputs) == 1
            else sum(content.size for content in inputs))

    def work_sample(self, rng: Stream, request: TACCRequest) -> float:
        inputs = request.inputs
        return self.latency_model.sample(
            rng, inputs[0].size if len(inputs) == 1
            else sum(content.size for content in inputs))

    def simulate(self, request: TACCRequest) -> Content:
        """Size-model execution: derive content of the predicted size
        without touching pixels (used by the cluster simulation)."""
        content = request.content
        scale = int(request.param("scale", 2))
        quality = int(request.param("quality", 25))
        reduction = predicted_image_reduction(scale, quality,
                                              self.codec_bonus)
        predicted = max(64, int(content.size / reduction))
        return content.derive(
            ZeroPayload(predicted),
            mime=self.simulated_mime or self.produces or content.mime,
            worker=self.worker_type,
            scale=scale,
            quality=quality,
            simulated=True,
        )
