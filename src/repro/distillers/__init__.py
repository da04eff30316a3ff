"""Datatype-specific distillers: TranSend's lossy-compression workers.

TranSend shipped three distillers (Section 3.1.6), each built in an
afternoon from off-the-shelf code:

1. scaling and low-pass filtering of JPEG images (jpeg-6a);
2. GIF-to-JPEG conversion followed by JPEG degradation (chosen because
   "the JPEG representation is smaller and faster to operate on for most
   images");
3. a Perl HTML "munger" that marks up inline image references, adds
   links to originals, and injects a preferences toolbar.

We reproduce all three as *real* transformations over a synthetic image
codec (:mod:`repro.distillers.images`) and real HTML strings — the
Figure 3 headline (10 KB JPEG -> ~1.5 KB at scale 2, quality 25) is an
actual measured byte count here, not a constant.  Each distiller also
carries the calibrated latency model from Section 4.3 (≈8 ms per KB of
input for images, much cheaper for HTML) used by the cluster simulation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("Distiller", "DistillerLatencyModel"),
    "jpeg": ("JpegDistiller",),
    "gif": ("GifDistiller",),
    "html": ("HtmlMunger",),
    "images": ("ImageFormatError", "SyntheticImage", "generate_photo"),
})

__all__ = [
    "Distiller",
    "DistillerLatencyModel",
    "GifDistiller",
    "HtmlMunger",
    "ImageFormatError",
    "JpegDistiller",
    "SyntheticImage",
    "generate_photo",
]
