"""Intensity projection and susceptibility phase-mask weighting."""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .diffusion import AdaptiveParams, _filter_job, _stream
from .fields import as_volume

__all__ = [
    "PhaseMaskParams",
    "project",
    "project_slices",
    "phase_mask",
    "swi_pipeline",
]


@dataclass(frozen=True)
class PhaseMaskParams:
    """Exponent of the negative-phase suppression mask."""

    exponent: int = 4

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("mask exponent must be >= 1")


def project_slices(slices, kind: str = "min") -> np.ndarray:
    """Pixelwise ``min`` or ``max`` of an iterable of 2-D slices as a
    float64 image, folded one slice at a time, so no volume is built.

    The first slice is copied before the next is read, so the later ones
    may be reused buffers. A run of float32 slices is folded in float32 and
    widened once at the end: the min or max of float32 values is one of
    them, so the result is the same bits as a float64 fold. The
    accumulator is widened before the first slice of any other dtype.
    """
    ops = {"min": np.minimum, "max": np.maximum}
    if kind not in ops:
        raise ValueError(f"unknown projection kind {kind!r}")
    op = ops[kind]
    it = iter(slices)
    acc = np.array(next(it))
    if acc.dtype != np.float32:
        acc = acc.astype(np.float64, copy=False)
    for sl in it:
        if acc.dtype == np.float32 and getattr(sl, "dtype", None) != np.float32:
            acc = acc.astype(np.float64)
        op(acc, sl, out=acc)
    return acc.astype(np.float64, copy=False)


def project(volume, kind: str = "min") -> np.ndarray:
    """Pixelwise extreme across slices: ``min`` or ``max``."""
    return project_slices(as_volume(volume), kind)


def phase_mask(phase, params: PhaseMaskParams = PhaseMaskParams()) -> np.ndarray:
    """Negative-phase suppression weights ((pi + phi)/pi)^m for phi < 0, 1 else.

    Phase values must lie in [-pi, pi], float32(pi) included: that is how a
    MIPVOL file stores pi, and it is clipped to pi. Output lies in [0, 1]
    and is monotone non-decreasing in phi.
    """
    phi = np.asarray(phase, dtype=np.float64)
    if not np.isfinite(phi).all():
        raise ValueError("phase contains NaN or Inf values")
    limit = float(np.float32(math.pi))  # 3.1415927410..., just above pi
    if phi.min() < -limit or phi.max() > limit:
        raise ValueError("phase values must lie in [-pi, pi]")
    phi = np.clip(phi, -math.pi, math.pi)
    w = np.where(phi < 0.0, ((math.pi + phi) / math.pi) ** params.exponent, 1.0)
    return w


def swi_pipeline(
    magnitude,
    phase,
    params: AdaptiveParams,
    mask_params: PhaseMaskParams = PhaseMaskParams(),
    mask_before_projection: bool = False,
) -> np.ndarray:
    """Filtered, phase-weighted minimum intensity projection.

    Each magnitude slice is filtered (``mip_min`` mode), the stack is
    minimum-projected, and each projected pixel is multiplied by the phase
    mask weight of the slice that produced the minimum (lowest slice index
    on ties). With ``mask_before_projection`` the per-slice product is
    projected instead. ``magnitude`` and ``phase`` are volumes, or
    iterables of their z-slices (such as ``iter_slices``); they are read in
    lock step, copied as they come, filtered in the strip-sized stacks of
    ``run_filter``'s kernel and folded slice by slice, so no volume is
    built. Each magnitude slice and its phase slice must have one shape;
    none is broadcast.
    """
    arrays = all(isinstance(a, np.ndarray) for a in (magnitude, phase))
    if arrays and magnitude.shape != phase.shape:
        raise ValueError(f"magnitude {magnitude.shape} and phase {phase.shape} differ")
    phases = deque()  # copies of the phase slices read with the stack being filtered

    def magnitudes():
        for mag, phi in zip(magnitude, phase, strict=True):
            if np.shape(mag) != np.shape(phi):
                raise ValueError(f"magnitude slice {np.shape(mag)} and phase slice "
                                 f"{np.shape(phi)} differ")
            phases.append(np.array(phi, dtype=np.float64))
            yield mag

    mip = weight = None
    for _, (out, _) in _stream(magnitudes(), [(_filter_job, params)]):
        for filtered in out:
            w = phase_mask(phases.popleft(), mask_params)
            if mask_before_projection:
                filtered *= w
            if mip is None:
                mip, weight = filtered, w
                continue
            lower = filtered < mip  # strict: a tie keeps the lowest slice's weight
            np.minimum(mip, filtered, out=mip)
            weight = np.where(lower, w, weight)
    return mip if mask_before_projection else mip * weight
