"""A synthetic raster-image codec with GIF-like and JPEG-like encodings.

We cannot ship jpeg-6a or real Web images, but the distillation pipeline
needs *real* bytes whose size responds to scaling and quality the way the
paper's images did.  This module provides:

* :class:`SyntheticImage` — a width x height x uint8 grayscale raster;
* a **GIF-like encoding**: lossless zlib over the raw raster (palette
  images compress losslessly; they are bigger per pixel of useful
  content, which is why TranSend converted GIF to JPEG);
* a **JPEG-like encoding**: quantization (driven by a 1-100 quality
  knob) before zlib — lossy, much smaller, and with the right
  size-vs-quality response (coarser quantization -> fewer distinct
  symbols -> smaller deflate output);
* :func:`generate_photo` — smooth random fields that compress like
  photographs rather than like noise or like constants.

Wire format (both encodings)::

    magic(4) | codec(1) | width(4) | height(4) | quality(1) | zlib payload

numpy is imported by the functions that build or filter a raster, not
by this module: every service imports the distillers, but the cluster
simulation runs on their latency and size models and never decodes a
pixel, so it should not pay for loading numpy.
"""

from __future__ import annotations

import struct
import zlib
from typing import TYPE_CHECKING, Tuple

from repro.sim.rng import Stream

if TYPE_CHECKING:
    import numpy as np

MAGIC = b"SIMG"
CODEC_GIF = 1
CODEC_JPEG = 2
_HEADER = struct.Struct(">4sBIIB")


class ImageFormatError(Exception):
    """Malformed image bytes (the 'pathological input data' that
    'occasionally causes a distiller to crash')."""


class SyntheticImage:
    """A grayscale raster with GIF-like / JPEG-like serializations."""

    def __init__(self, pixels: np.ndarray) -> None:
        if pixels.ndim != 2 or pixels.dtype != "uint8":
            raise ValueError("pixels must be a 2-D uint8 array")
        if pixels.size == 0:
            raise ValueError("image must be non-empty")
        self.pixels = pixels

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    # -- encodings -----------------------------------------------------------

    def encode_gif(self) -> bytes:
        """Lossless 'GIF': zlib at a palette-like (low) compression
        level, so GIF bytes are larger than JPEG bytes for the same
        content — the property TranSend exploited."""
        payload = zlib.compress(self.pixels.tobytes(), level=2)
        header = _HEADER.pack(MAGIC, CODEC_GIF, self.width, self.height, 0)
        return header + payload

    def encode_jpeg(self, quality: int = 75) -> bytes:
        """Lossy 'JPEG': quantize then deflate.

        The quantization step runs from 2 at quality 100 (near-lossless)
        to ~32 at quality 1, so the size/quality curve is steep at low
        qualities, like real JPEG, and even high-quality JPEG beats the
        lossless GIF encoding (the property TranSend exploited).
        """
        if not 1 <= quality <= 100:
            raise ValueError("quality must be in [1, 100]")
        # Calibrated against Figure 3: scale 2 + quality 25 turns a
        # ~10 KB GIF into ~1.5 KB (a 6.4x reduction here vs the paper's
        # 6.7x).
        step = max(2, int(2 + (100 - quality) * 0.05))
        quantized = (self.pixels // step) * step
        payload = zlib.compress(quantized.astype("uint8").tobytes(),
                                level=9)
        header = _HEADER.pack(MAGIC, CODEC_JPEG, self.width, self.height,
                              quality)
        return header + payload

    @classmethod
    def decode(cls, data: bytes) -> Tuple["SyntheticImage", int, int]:
        """Parse bytes -> (image, codec, quality).

        Raises :class:`ImageFormatError` on anything malformed.
        """
        if len(data) < _HEADER.size:
            raise ImageFormatError("truncated header")
        magic, codec, width, height, quality = _HEADER.unpack(
            data[:_HEADER.size])
        if magic != MAGIC:
            raise ImageFormatError(f"bad magic {magic!r}")
        if codec not in (CODEC_GIF, CODEC_JPEG):
            raise ImageFormatError(f"unknown codec {codec}")
        if width == 0 or height == 0 or width * height > 64_000_000:
            raise ImageFormatError(f"absurd dimensions {width}x{height}")
        try:
            raw = zlib.decompress(data[_HEADER.size:])
        except zlib.error as error:
            raise ImageFormatError("corrupt payload") from error
        if len(raw) != width * height:
            raise ImageFormatError(
                f"payload is {len(raw)} bytes, expected {width * height}")
        import numpy as np

        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
        return cls(pixels.copy()), codec, quality

    # -- transformations ---------------------------------------------------------

    def scaled(self, factor: int) -> "SyntheticImage":
        """Downscale by an integer factor in each dimension via block
        averaging (the paper's 'scaling this JPEG image by a factor of 2
        in each dimension')."""
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        if factor == 1:
            return SyntheticImage(self.pixels.copy())
        factor_y = min(factor, self.height)
        factor_x = min(factor, self.width)
        height = self.height // factor_y
        width = self.width // factor_x
        trimmed = self.pixels[: height * factor_y, : width * factor_x]
        blocks = trimmed.reshape(height, factor_y, width, factor_x)
        averaged = blocks.mean(axis=(1, 3))
        return SyntheticImage(averaged.astype("uint8"))

    def low_pass(self, radius: int = 1) -> "SyntheticImage":
        """Box-filter smoothing (the 'low-pass filter' tuning images for
        slow links); smoother rasters also deflate smaller."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if radius == 0:
            return SyntheticImage(self.pixels.copy())
        import numpy as np

        acc = self.pixels.astype(np.float64)
        out = np.copy(acc)
        count = np.ones_like(acc)
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                if dy == 0 and dx == 0:
                    continue
                shifted = np.roll(np.roll(acc, dy, axis=0), dx, axis=1)
                out += shifted
                count += 1
        return SyntheticImage((out / count).astype(np.uint8))

    def __eq__(self, other: object) -> bool:
        import numpy as np

        return (isinstance(other, SyntheticImage)
                and np.array_equal(self.pixels, other.pixels))

    def __repr__(self) -> str:
        return f"<SyntheticImage {self.width}x{self.height}>"


def generate_photo(rng: Stream, width: int = 160,
                   height: int = 120) -> SyntheticImage:
    """A smooth random field that compresses like a photograph.

    Construction: a coarse random grid bilinearly upsampled to full
    resolution, plus mild pixel noise.  Deflate finds structure (like
    real image codecs do on photos) but cannot collapse it to nothing.
    """
    import numpy as np

    coarse_w = max(2, width // 16)
    coarse_h = max(2, height // 16)
    coarse = np.array([
        [rng.uniform(0, 255) for _ in range(coarse_w)]
        for _ in range(coarse_h)
    ])
    # bilinear upsample to (height, width)
    ys = np.linspace(0, coarse_h - 1, height)
    xs = np.linspace(0, coarse_w - 1, width)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, coarse_h - 1)
    x1 = np.minimum(x0 + 1, coarse_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    upsampled = (
        coarse[np.ix_(y0, x0)] * (1 - wy) * (1 - wx)
        + coarse[np.ix_(y1, x0)] * wy * (1 - wx)
        + coarse[np.ix_(y0, x1)] * (1 - wy) * wx
        + coarse[np.ix_(y1, x1)] * wy * wx
    )
    noise = np.array([
        [rng.gauss(0, 6.0) for _ in range(width)] for _ in range(height)
    ])
    pixels = np.clip(upsampled + noise, 0, 255).astype(np.uint8)
    return SyntheticImage(pixels)


def photo_sized_for(rng: Stream, target_gif_bytes: int,
                    max_iterations: int = 8) -> SyntheticImage:
    """A photo whose GIF encoding is roughly ``target_gif_bytes``.

    Used by the service layer to materialize trace records (which carry
    only a size) into distillable content.
    """
    if target_gif_bytes < 64:
        raise ValueError("target too small for an image")
    # Start from the empirical bytes-per-pixel of this codec (~0.5) and
    # refine geometrically.
    pixels_needed = target_gif_bytes * 2
    aspect = 4.0 / 3.0
    for _ in range(max_iterations):
        height = max(8, int((pixels_needed / aspect) ** 0.5))
        width = max(8, int(height * aspect))
        image = generate_photo(rng, width, height)
        actual = len(image.encode_gif())
        if 0.7 * target_gif_bytes <= actual <= 1.4 * target_gif_bytes:
            return image
        pixels_needed = int(pixels_needed * target_gif_bytes / actual)
    return image
