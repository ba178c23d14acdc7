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
    argument covers float32-sized values only."""
    total = _sigma_sum(fields, sigma)
    if not math.isfinite(total):
        why = "their weighted sum of squares overflows"
    elif math.sqrt(total) >= _F32_OVERFLOW:
        why = f"their combination may reach {math.sqrt(total):.4g}, beyond float32 range"
    else:
        return
    raise ValueError(f"sigmas {[float(s) for s in sigma]!r} are too small for the "
                     f"channels' magnitudes: {why}")


def _overflow(weights) -> ValueError:
    return ValueError(f"sigma values {weights!r} are too small for the channels' "
                      "magnitudes: their weighted sum of squares overflows")


def _fold(acc, f, s) -> None:
    """acc += (f / s)^2, the one per-channel step of every combination; with
    ``s`` None, f is squared as it is, the bits of f / 1.0 squared."""
    if s is None:
        t = np.multiply(f, f)
    else:
        t = np.divide(f, s)
        np.multiply(t, t, out=t)
    np.add(acc, t, out=acc)


def _rescale(f, num, denom, small, out):
    """f * (num / denom, or 1 where ``small``) into ``out``, the one
    per-channel step of the filter-synthesized scaling; the ratio is taken
    in place in ``num``."""
    np.divide(num, denom, out=num, where=~small)
    np.copyto(num, 1.0, where=small)
    return np.multiply(f, num, out=out)


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
        weights = [None] * len(fields)
    else:
        weights = [float(s) for s in sigma]
        if len(weights) != len(fields):
            raise ValueError(
                f"got {len(weights)} sigma values for {len(fields)} channels"
            )
        if not all(math.isfinite(s) and s > 0 for s in weights):
            raise ValueError("sigma values must be finite and positive")
        if not math.isfinite(_sigma_sum(fields, weights)):
            raise _overflow(weights)
    acc = np.zeros(shape, dtype=np.float64)
    for f, s in zip(fields, weights):
        _fold(acc, f, s)
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
    out = []
    for field, trace in filtered_channels:
        f = as_field(field)
        num = np.array(trace.basis_sum, dtype=np.float64)  # a copy, to hold the ratio
        if num.shape != denom.shape or f.shape != denom.shape:
            raise ValueError("channel maps must match the combined map shape")
        out.append(_rescale(f, num, denom, small, None))
    return out


def _pc_stream(channels, combined, params: AdaptiveParams, sigma=None):
    """Yield ``pc_pipeline``'s results one at a time: each of ``channels``
    filtered and rescaled, then their combination. ``combined`` is their
    plain combination, ``pa_combine(channels, sigma)``, whose inputs the
    caller has checked, ``sigma`` with ``_check_sigma`` too. It is filtered
    once, keeping only its final update, the ratio's denominator, and the
    mask of its pixels below ``RATIO_EPS``; the caller holds no other
    reference to it, so it is freed then. Each channel is then filtered,
    rescaled in its run's own buffers, checked as ``pa_combine`` checks it,
    with a running sum of its sigma bound, yielded and folded into one sum
    of squares before the next is filtered.

    At its peak, while a channel is filtered, this holds the ``channels``,
    the denominator and the running sum (a slice each), the mask and the
    channel's run (``_run``'s iterate, the padded field, the update,
    ``mip`` mode's two maps, the strip buffers). A four-coil 512x512 ``pc``
    peaks at 12.7 slices, 25.4 MiB of traced numpy memory, where keeping
    every run until the last had finished took 21.2 slices, 42.4 MiB."""
    weights = [None] * len(channels) if sigma is None else [float(s) for s in sigma]
    denom = run_filter(combined, params)[1].basis_sum
    del combined  # not held through the channels' runs: about 2 MiB of peak at 512²
    small = np.abs(denom) < RATIO_EPS
    acc = np.zeros_like(denom)
    total = 0.0
    for ch, s in zip(channels, weights):
        f, trace = run_filter(ch, params)
        # run_filter refuses a step that leaves a NaN or Inf; the rescaled
        # channel is checked as pa_combine checks its channels
        f = as_field(_rescale(f, trace.basis_sum, denom, small, f))
        del trace  # with f below: no run outlives its channel's turn
        if s is not None:
            total += _sigma_sum([f], [s])
            if not math.isfinite(total):
                raise _overflow(weights)
        yield f
        _fold(acc, f, s)
        del f
    yield np.sqrt(acc, out=acc)


def pc_pipeline(channels, params: AdaptiveParams, sigma=None):
    """Filtering, synthesized scaling and final merge of the list of merged
    flow ``channels`` that ``combine_flow`` returns.

    Steps: filtering of the plain combination for the denominator trace,
    refusing ``sigma`` as ``pa_combine`` and ``_check_sigma`` do before any
    filter runs; then, channel by channel, directional filtering,
    filter-synthesized rescaling and a fold into the final combination of
    the rescaled channels (``_pc_stream``). Returns (scaled, combined).
    """
    combined = pa_combine(channels, sigma)
    if sigma is not None:
        _check_sigma([as_field(ch) for ch in channels], sigma)
    stream = _pc_stream(channels, combined, params, sigma)
    del combined  # the stream frees it once it has been filtered
    *scaled, combined = stream
    return scaled, combined
