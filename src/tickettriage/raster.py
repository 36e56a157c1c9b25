"""Raster types, PPM I/O, grayscale, blur and the Otsu threshold.

All images are backed by numpy uint8 arrays: RGB rasters are (h, w, 3),
grayscale rasters are (h, w). Everything here is pure and deterministic,
which the test oracles rely on.
"""

from __future__ import annotations

import math

import numpy as np


MAX_PIXELS = 3840 * 2160  # one 4K screen: read_ppm refuses a larger image


class ImageTooLarge(ValueError):
    """A PPM header declares more than MAX_PIXELS pixels."""


class Raster:
    """RGB image, 8 bits per channel, row-major."""

    def __init__(self, array: np.ndarray):
        array = np.asarray(array, dtype=np.uint8)
        if array.ndim != 3 or array.shape[2] != 3:
            raise ValueError(f"Raster expects (h, w, 3) array, got {array.shape}")
        if array.shape[0] < 1 or array.shape[1] < 1:
            raise ValueError("Raster must be at least 1x1")
        self.array = array

    @property
    def width(self) -> int:
        return self.array.shape[1]

    @property
    def height(self) -> int:
        return self.array.shape[0]

    def tobytes(self) -> bytes:
        return self.array.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, Raster) and np.array_equal(self.array, other.array)


class GrayRaster:
    """Single-channel 8-bit image."""

    def __init__(self, array: np.ndarray):
        array = np.asarray(array, dtype=np.uint8)
        if array.ndim != 2:
            raise ValueError(f"GrayRaster expects (h, w) array, got {array.shape}")
        self.array = array

    @property
    def width(self) -> int:
        return self.array.shape[1]

    @property
    def height(self) -> int:
        return self.array.shape[0]


LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def rgb_to_luma(rgb: np.ndarray) -> np.ndarray:
    """Float luma 0.299 R + 0.587 G + 0.114 B of an (..., 3) array, unrounded."""
    return (rgb[..., 0] * LUMA_WEIGHTS[0] + rgb[..., 1] * LUMA_WEIGHTS[1]
            + rgb[..., 2] * LUMA_WEIGHTS[2])


def to_grayscale(img: Raster) -> GrayRaster:
    """Per-pixel luma round(0.299 R + 0.587 G + 0.114 B), clamped to [0, 255]."""
    return GrayRaster(np.clip(np.rint(rgb_to_luma(img.array)), 0, 255).astype(np.uint8))


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian, radius ceil(3*sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs ** 2) / (2.0 * sigma ** 2))
    return k / k.sum()


def _blur_float(gray: np.ndarray, sigma: float) -> np.ndarray:
    k = gaussian_kernel(sigma)
    radius = (len(k) - 1) // 2
    # clamp edge handling = pad with edge values
    padded = np.pad(gray.astype(np.float64), ((0, 0), (radius, radius)), mode="edge")
    tmp = np.zeros_like(gray, dtype=np.float64)
    for i, w in enumerate(k):
        tmp += w * padded[:, i:i + gray.shape[1]]
    padded = np.pad(tmp, ((radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(tmp)
    for i, w in enumerate(k):
        out += w * padded[i:i + gray.shape[0], :]
    return out


def gaussian_blur(img: GrayRaster, sigma: float) -> GrayRaster:
    """Separable Gaussian blur; coordinates clamped at the edges."""
    out = _blur_float(img.array, sigma)
    return GrayRaster(np.clip(np.rint(out), 0, 255).astype(np.uint8))


def otsu_threshold(img: GrayRaster) -> int:
    """Classic Otsu threshold maximizing between-class variance."""
    hist = np.bincount(img.array.ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    if total == 0:
        return 128
    omega = np.cumsum(hist) / total
    mu = np.cumsum(hist * np.arange(256)) / total
    mu_t = mu[-1]
    denom = omega * (1.0 - omega)
    denom[denom == 0] = np.nan
    sigma_b = (mu_t * omega - mu) ** 2 / denom
    if np.all(np.isnan(sigma_b)):
        return 128
    # threshold is applied as >=, so split above the argmax bin
    return int(np.nanargmax(sigma_b)) + 1


def write_ppm(img: Raster, path) -> None:
    """Binary PPM (P6, maxval 255); the bit-exact interchange format."""
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (img.width, img.height))
        fh.write(img.tobytes())


def read_ppm(path) -> Raster:
    """Binary PPM (P6, maxval 255). The header is parsed before the pixel
    body is read, so an image over MAX_PIXELS is refused unread."""
    with open(path, "rb") as fh:
        if fh.read(2) != b"P6":
            raise ValueError(f"{path}: not a binary PPM (P6) file")
        # header: width, height, maxval, separated by whitespace/comments; the
        # single whitespace byte after maxval ends the last token
        fields = []
        ch = fh.read(1)
        while len(fields) < 3:
            if ch.isspace():
                ch = fh.read(1)
            elif ch == b"#":
                fh.readline()
                ch = fh.read(1)
            else:
                token = bytearray()
                while ch and not ch.isspace():
                    token += ch
                    ch = fh.read(1)
                fields.append(int(token))
        width, height, maxval = fields
        if width < 1 or height < 1:
            raise ValueError(f"{path}: non-positive dimension {width}x{height}")
        if maxval != 255:
            raise ValueError(f"{path}: unsupported maxval {maxval}")
        if width * height > MAX_PIXELS:
            raise ImageTooLarge(f"{path}: {width}x{height} is over {MAX_PIXELS} pixels")
        body = bytearray(width * height * 3)
        if fh.readinto(body) != len(body):
            raise ValueError(f"{path}: pixel data shorter than {width}x{height}")
    return Raster(np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3))
