"""Multi-channel combination for phased-array flow imaging.

Channels are combined as the root of the noise-weighted sum of squares.
When per-channel noise calibration is unavailable, the filter-synthesized
scaling reweights each filtered channel by the ratio of its final filter
update map to that of the combined image, standing in for the missing
sigma_k calibration.
"""
from __future__ import annotations

import math

import numpy as np

from .diffusion import AdaptiveParams, FilterTrace, run_filter
from .fields import as_field
from .fileio import _F32_OVERFLOW

__all__ = [
    "combine_flow",
    "pa_combine",
    "filter_synthesized_scale",
    "pc_pipeline",
]

RATIO_EPS = 1e-12


def combine_flow(x_components, y_components, z_components, mode: str = "sum"):
    """Merge per-channel directional flow projections into one image each.

    ``sum`` adds the three components; ``magnitude`` takes the root sum of
    squares. Returns a list of per-channel fields.
    """
    if mode not in ("sum", "magnitude"):
        raise ValueError(f"unknown flow combination mode {mode!r}")
    if not len(x_components) == len(y_components) == len(z_components):
        raise ValueError("flow component lists must have equal channel counts")
    if not x_components:
        raise ValueError("need at least one channel")
    out = []
    for fx, fy, fz in zip(x_components, y_components, z_components):
        ax, ay, az = as_field(fx), as_field(fy), as_field(fz)
        if ax.shape != ay.shape or ax.shape != az.shape:
            raise ValueError("flow components of one channel differ in shape")
        if mode == "sum":
            out.append(ax + ay + az)
        else:
            out.append(np.sqrt(ax * ax + ay * ay + az * az))
    return out


def _sigma_sum(fields, sigma) -> float:
    """sum_k (max|M_k| / s_k)^2 of the validated ``fields`` and the finite,
    positive weights ``sigma``, inf where it overflows. Each pixel's
    quotients, squares and running sum in ``pa_combine`` lie at or below
    these, rounding included, as they are taken in the same order, so when
    this sum is finite ``pa_combine`` overflows nowhere, and its square
    root bounds every pixel of the combination."""
    total = 0.0
    for f, s in zip(fields, sigma):
        x = max(float(f.max()), -float(f.min())) / s
        total += x * x  # x ** 2 raises OverflowError where x * x gives inf
    return total


def _check_sigma(fields, sigma) -> None:
    """Refuse, with a ValueError naming them, finite and positive weights
    ``sigma`` whose combination of the validated ``fields`` may reach
    float32's overflow: ``pc_pipeline`` filters that combination and
    ``pc`` writes it to a MIPVOL file, and the strip kernels' exactness
    argument covers float32-sized values only. Sigmas that are not finite
    and positive are left to ``pa_combine``'s own words."""
    if not all(0 < s < math.inf for s in sigma):
        return
    total = _sigma_sum(fields, sigma)
    if not math.isfinite(total):
        why = "their weighted sum of squares overflows"
    elif math.sqrt(total) >= _F32_OVERFLOW:
        why = f"their combination may reach {math.sqrt(total):.4g}, beyond float32 range"
    else:
        return
    raise ValueError(f"sigmas {[float(s) for s in sigma]!r} are too small for the "
                     f"channels' magnitudes: {why}")


def pa_combine(channels, sigma=None) -> np.ndarray:
    """Noise-weighted root-sum-of-squares combination sqrt(sum (M_k/s_k)^2).

    With ``sigma`` absent every channel weight is 1 (uncalibrated
    combination). Sigma entries must be finite and positive, match the
    channel count and be large enough that the sum does not overflow.
    """
    fields = [as_field(ch) for ch in channels]
    if not fields:
        raise ValueError("need at least one channel")
    shape = fields[0].shape
    if any(f.shape != shape for f in fields):
        raise ValueError("channels must share one shape")
    if sigma is None:
        weights = [1.0] * len(fields)
    else:
        weights = [float(s) for s in sigma]
        if len(weights) != len(fields):
            raise ValueError(
                f"got {len(weights)} sigma values for {len(fields)} channels"
            )
        if not all(math.isfinite(s) and s > 0 for s in weights):
            raise ValueError("sigma values must be finite and positive")
        if not math.isfinite(_sigma_sum(fields, weights)):
            raise ValueError(f"sigma values {weights!r} are too small for the channels' "
                             "magnitudes: their weighted sum of squares overflows")
    acc = np.zeros(shape, dtype=np.float64)
    for f, s in zip(fields, weights):
        scaled = f / s
        acc += scaled * scaled
    return np.sqrt(acc)


def filter_synthesized_scale(filtered_channels, combined_trace: FilterTrace):
    """Rescale filtered channels by their filter-update ratio maps.

    Each entry of ``filtered_channels`` is a (field, trace) pair from the
    per-channel filter runs; the scale map is trace.basis_sum divided by the
    combined image's basis_sum. Pixels where the denominator magnitude falls
    below ``RATIO_EPS`` pass the channel through unscaled.
    """
    if not filtered_channels:
        raise ValueError("need at least one channel")
    denom = np.asarray(combined_trace.basis_sum, dtype=np.float64)
    small = np.abs(denom) < RATIO_EPS
    safe = np.where(small, 1.0, denom)
    out = []
    for field, trace in filtered_channels:
        f = as_field(field)
        num = np.asarray(trace.basis_sum, dtype=np.float64)
        if num.shape != denom.shape or f.shape != denom.shape:
            raise ValueError("channel maps must match the combined map shape")
        ratio = np.where(small, 1.0, num / safe)
        out.append(f * ratio)
    return out


def pc_pipeline(channels, params: AdaptiveParams, sigma=None):
    """Filtering, synthesized scaling and final merge of the list of merged
    flow ``channels`` that ``combine_flow`` returns.

    Steps: filtering of the plain combination for the denominator trace,
    refusing ``sigma`` as ``pa_combine`` and ``_check_sigma`` do before any
    filter runs; directional filtering of each channel (keeping traces);
    filter-synthesized rescaling; final combination of the rescaled
    channels. Returns (scaled, combined).
    """
    combined = pa_combine(channels, sigma)
    if sigma is not None:
        _check_sigma([as_field(ch) for ch in channels], sigma)
    _, combined_trace = run_filter(combined, params)
    del combined  # not held through the channels' runs: about 2 MiB of peak at 512²
    filtered = [run_filter(ch, params) for ch in channels]
    scaled = filter_synthesized_scale(filtered, combined_trace)
    return scaled, pa_combine(scaled, sigma)
