"""Image-quality figures: PSNR, contrast ratio, and contrast per pixel."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import as_field

__all__ = [
    "Roi",
    "psnr_vs_input",
    "psnr_vs_reference",
    "contrast_ratio",
    "contrast_per_pixel",
]


@dataclass(frozen=True)
class Roi:
    """Axis-aligned evaluation window (x0, y0, width, height)."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self):
        if self.x0 < 0 or self.y0 < 0 or self.width < 1 or self.height < 1:
            raise ValueError("roi must have non-negative origin and positive size")

    def crop(self, field: np.ndarray) -> np.ndarray:
        ny, nx = field.shape
        if self.x0 + self.width > nx or self.y0 + self.height > ny:
            raise ValueError(
                f"roi {self} does not fit inside a {nx}x{ny} field"
            )
        return field[self.y0 : self.y0 + self.height, self.x0 : self.x0 + self.width]


def psnr_vs_input(input_field, filtered_field, roi: Roi | None = None) -> float:
    """Peak signal-to-noise ratio of a filtered image against its input.

    The peak is the input's ROI maximum; identical images return +inf (the
    "identical" sentinel).
    """
    u0 = as_field(input_field)
    u = as_field(filtered_field)
    if u0.shape != u.shape:
        raise ValueError(f"shape mismatch {u0.shape} vs {u.shape}")
    if roi is not None:
        u0 = roi.crop(u0)
        u = roi.crop(u)
    mse = float(np.mean((u - u0) ** 2))
    if mse == 0.0:
        return math.inf
    peak = float(np.max(u0))
    if peak == 0.0:
        return -math.inf
    return 10.0 * math.log10(peak * peak / mse)


def psnr_vs_reference(reference_field, test_field, roi: Roi | None = None) -> float:
    """PSNR of a test image against a ground-truth reference, which takes
    the input's place: the peak is the reference's ROI maximum."""
    return psnr_vs_input(reference_field, test_field, roi)


def contrast_ratio(field, roi: Roi | None = None) -> float:
    """Michelson contrast (max - min)/(max + min) over the ROI."""
    u = as_field(field)
    if roi is not None:
        u = roi.crop(u)
    hi = float(u.max())
    lo = float(u.min())
    denom = hi + lo
    if denom == 0.0:
        raise ValueError("contrast ratio undefined: max + min is zero")
    return (hi - lo) / denom


def contrast_per_pixel(field) -> float:
    """Mean absolute difference against all existing 8-neighbours.

    Sums |u(i,j) - u(m,n)| over every pixel and every neighbour inside the
    image, divided by the pixel count. Needs at least a 2x2 field.
    """
    u = as_field(field)
    ny, nx = u.shape
    if ny < 2 or nx < 2:
        raise ValueError(f"contrast per pixel needs at least 2x2, got {ny}x{nx}")
    # shift (-dy, -dx) gives the differences of (dy, dx) negated, in the same
    # order, so its sum is the same bits: each of the four sums is taken once
    # and added twice, in the order of the eight shifts (the first four, then
    # their opposites from the last back)
    sums = []
    buf = np.empty(ny * nx)  # one contiguous difference buffer for all shifts
    for dy, dx in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):
        ys = slice(max(0, dy), ny + min(0, dy))
        xs = slice(max(0, dx), nx + min(0, dx))
        ys2 = slice(max(0, -dy), ny + min(0, -dy))
        xs2 = slice(max(0, -dx), nx + min(0, -dx))
        h, w = ys.stop - ys.start, xs.stop - xs.start
        diff = np.subtract(u[ys, xs], u[ys2, xs2], out=buf[: h * w].reshape(h, w))
        sums.append(float(np.abs(diff, out=diff).sum()))
    total = 0.0
    for s in sums + sums[::-1]:
        total += s
    return total / (nx * ny)
