"""Synthetic tube phantoms for verifying projection filters.

A phantom is a unit-baseline volume with optional smooth baseline
modulation, Gaussian-profile tubes along 3-D polyline axes, and seeded
white Gaussian noise. Channelized variants multiply the clean volume by
smooth coil sensitivity maps before adding per-channel noise.

All randomness flows through one numpy PCG64 generator seeded from the
PhantomSpec; draws happen in a fixed order (baseline mixture, volume
noise, channel noise), so outputs are a pure function of the parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import as_field

__all__ = [
    "TubeSpec",
    "ChannelSpec",
    "PhantomSpec",
    "PhantomOutput",
    "default_venous_spec",
    "generate",
    "generate_flow",
    "dip_amplitude",
]


@dataclass(frozen=True)
class TubeSpec:
    """A tube: polyline axis control points (x, y, z), radius, signed contrast."""

    points: tuple
    radius: float = 2.0
    contrast: float = -0.2

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a tube axis needs at least two control points")
        if not (math.isfinite(self.radius) and self.radius >= 1.0):
            raise ValueError("tube radius must be finite and >= 1")
        if not (math.isfinite(self.contrast) and self.contrast != 0):
            raise ValueError("tube contrast must be finite and non-zero")


@dataclass(frozen=True)
class ChannelSpec:
    """Coil channels: one noise sigma per channel, whose sensitivity maps
    ``_sensitivity_maps`` lays out."""

    sigmas: tuple

    def __post_init__(self):
        if len(self.sigmas) < 1:
            raise ValueError("need at least one channel")
        if not all(math.isfinite(s) and s >= 0 for s in self.sigmas):
            raise ValueError("channel sigmas must be finite and non-negative")


@dataclass(frozen=True)
class PhantomSpec:
    width: int = 64
    height: int = 64
    depth: int = 32
    baseline_amplitude: float = 0.0
    tubes: tuple = ()
    noise_sigma: float = 0.05
    seed: int = 1234
    channels: ChannelSpec | None = None

    def __post_init__(self):
        if self.width < 8 or self.height < 8 or self.depth < 1:
            raise ValueError("phantom needs width, height >= 8 and depth >= 1")
        if not 0 <= self.baseline_amplitude < 1:
            raise ValueError("baseline_amplitude must lie in [0, 1)")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for tube in self.tubes:
            for px, py, pz in tube.points:
                inside = (
                    0 <= px <= self.width - 1
                    and 0 <= py <= self.height - 1
                    and 0 <= pz <= self.depth - 1
                )
                if not inside:
                    raise ValueError(
                        f"tube control point ({px}, {py}, {pz}) outside the volume"
                    )


@dataclass
class PhantomOutput:
    clean: np.ndarray
    noisy: np.ndarray
    truth_mask: np.ndarray
    channels: list | None
    metadata: dict


def default_venous_spec(seed: int = 1234) -> PhantomSpec:
    """64x64x32 phantom with one dark mid-depth tube along x."""
    tube = TubeSpec(points=((0.0, 32.0, 16.0), (63.0, 32.0, 16.0)))
    return PhantomSpec(tubes=(tube,), seed=seed)


def _slice_grids(spec: PhantomSpec):
    """Column and row coordinates of one z-slice, shaped to broadcast."""
    y = np.arange(spec.height, dtype=np.float64)[:, None]
    x = np.arange(spec.width, dtype=np.float64)[None, :]
    return x, y


def _segments(tube: TubeSpec, x, y) -> list:
    """The tube axis's segments as (a, ab, denom, dxa, dya, xy2), with
    ``xy2`` the part of the squared distance that no slice's depth changes,
    or None for a sloped segment.

    For a segment in one z-plane (``ab[2] == 0``) the depth term of the
    projection parameter t is a signed zero, which can only flip the sign
    of a zero t, and a zero t gives the same squared in-plane offsets. So
    there, and for a zero-length segment, the squared distance is ``xy2``
    plus the squared depth offset, bit for bit."""
    pts = [np.asarray(p, dtype=np.float64) for p in tube.points]
    segments = []
    for a, b in zip(pts[:-1], pts[1:]):
        ab = b - a
        denom = float(ab @ ab)
        dxa = x - a[0]
        dya = y - a[1]
        xy2 = None
        if denom == 0.0:
            xy2 = dxa * dxa + dya * dya
        elif ab[2] == 0.0:
            t = np.clip((dxa * ab[0] + dya * ab[1]) / denom, 0.0, 1.0)
            ex = dxa - t * ab[0]
            ey = dya - t * ab[1]
            xy2 = ex * ex + ey * ey
        segments.append((a, ab, denom, dxa, dya, xy2))
    return segments


def _axis_distance(segments, shape, z: float) -> np.ndarray:
    """Distance from every voxel of the slice of ``shape`` at depth ``z`` to
    the polyline axis of ``_segments``."""
    dist = np.full(shape, np.inf)
    for a, ab, denom, dxa, dya, xy2 in segments:
        dza = z - a[2]
        if xy2 is not None:
            d2 = xy2 + dza * dza
        else:
            t = (dxa * ab[0] + dya * ab[1] + dza * ab[2]) / denom
            t = np.clip(t, 0.0, 1.0)
            ex = dxa - t * ab[0]
            ey = dya - t * ab[1]
            ez = dza - t * ab[2]
            d2 = ex * ex + ey * ey + ez * ez
        dist = np.minimum(dist, np.sqrt(d2))
    return dist


def _baseline_mixture(spec: PhantomSpec, rng: np.random.Generator):
    """Draw the three sinusoid terms of the baseline modulation.

    Wavelengths stay at or above width/4 so the modulation is strictly
    low-frequency. Returns None when ``baseline_amplitude`` is zero.
    """
    # draw mixture parameters even when amplitude is zero to keep the
    # generator stream layout independent of the amplitude value
    n_terms = 3
    wavelengths = rng.uniform(spec.width / 4.0, spec.width, size=n_terms)
    azimuth = rng.uniform(0.0, 2.0 * math.pi, size=n_terms)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_terms)
    z_gain = rng.uniform(0.0, 0.5, size=n_terms)
    if spec.baseline_amplitude == 0:
        return None
    return list(zip(wavelengths, azimuth, phases, z_gain))


def _baseline(spec: PhantomSpec, mixture, x, y, z: float):
    """Unit level plus the mixture, scaled to peak amplitude
    ``baseline_amplitude``, on the slice at depth ``z``."""
    if mixture is None:
        return 1.0
    mix = np.zeros((y.shape[0], x.shape[1]))
    for lam, az, ph, zg in mixture:
        k = 2.0 * math.pi / lam
        arg = k * (math.cos(az) * x + math.sin(az) * y + zg * z) + ph
        mix += np.sin(arg)
    mix /= len(mixture)
    return 1.0 + spec.baseline_amplitude * mix


def _sensitivity_maps(spec: PhantomSpec):
    """Yield each channel's smooth coil sensitivity map, one at a time: a
    Gaussian of width 0.6 * max(width, height) above a floor of 0.25,
    centred on a ring of radius 0.35 * min(width, height) about the image
    centre, the channels evenly spaced around it."""
    n = len(spec.channels.sigmas)
    cx, cy = (spec.width - 1) / 2.0, (spec.height - 1) / 2.0
    r = 0.35 * min(spec.width, spec.height)
    width = 0.6 * max(spec.width, spec.height)
    floor = 0.25
    x, y = _slice_grids(spec)
    for k in range(n):
        mx = cx + r * math.cos(2.0 * math.pi * k / n)
        my = cy + r * math.sin(2.0 * math.pi * k / n)
        r2 = (x - mx) ** 2 + (y - my) ** 2
        yield floor + (1.0 - floor) * np.exp(-r2 / (2.0 * width * width))


def _slices(spec: PhantomSpec, mixture, rng=None):
    """Yield the clean, noisy and truth-mask values of each z-slice, in
    depth order.

    The noise is drawn from ``rng`` one slice at a time; numpy draws taken
    in chunks equal one whole-volume draw, so the stream does not depend on
    the slicing. Without ``rng``, or at zero noise sigma, noisy is clean.
    """
    x, y = _slice_grids(spec)
    shape = (spec.height, spec.width)
    axes = [_segments(tube, x, y) for tube in spec.tubes]
    for k in range(spec.depth):
        z = float(k)
        clean = np.empty(shape)
        clean[...] = _baseline(spec, mixture, x, y, z)
        mask = np.zeros(shape)
        for tube, segments in zip(spec.tubes, axes):
            d = _axis_distance(segments, shape, z)
            sigma_r = tube.radius / 2.0
            clean += tube.contrast * np.exp(-(d * d) / (2.0 * sigma_r * sigma_r))
            mask[d <= tube.radius] = 1.0
        noisy = clean
        if rng is not None and spec.noise_sigma > 0:
            # addition commutes, so adding in place is exact
            noisy = rng.normal(0.0, spec.noise_sigma, size=shape)
            noisy += clean
        yield clean, noisy, mask


def _passes(spec: PhantomSpec):
    """``generate``'s volumes as passes over their slices, in the order the
    generator draws: first an iterator of each z-slice's (clean, noisy,
    mask), then one iterator per coil channel, which recomputes the clean
    slices (they are deterministic) and draws the channel's noise slice by
    slice. Each pass must be run to its end before the next one is taken;
    a caller that takes only the first runs no channel pass."""
    rng = np.random.default_rng(spec.seed)
    mixture = _baseline_mixture(spec, rng)
    yield _slices(spec, mixture, rng)
    if spec.channels is None:
        return
    for s_map, sigma in zip(_sensitivity_maps(spec), spec.channels.sigmas):
        clean = (sl[0] for sl in _slices(spec, mixture))
        if sigma > 0:
            yield (rng.normal(0.0, sigma, size=c.shape) + c * s_map for c in clean)
        else:
            yield (c * s_map for c in clean)


def _metadata(spec: PhantomSpec) -> dict:
    return {
        "generator": "numpy default_rng (PCG64)",
        "seed": spec.seed,
        "width": spec.width,
        "height": spec.height,
        "depth": spec.depth,
        "baseline_amplitude": spec.baseline_amplitude,
        "noise_sigma": spec.noise_sigma,
        "tubes": len(spec.tubes),
        "channels": 0 if spec.channels is None else len(spec.channels.sigmas),
    }


def generate(spec: PhantomSpec) -> PhantomOutput:
    """Build the phantom volumes described by ``spec``.

    Tubes contribute contrast * exp(-d^2 / (2 (radius/2)^2)) with d the
    distance to the axis; the truth mask marks d <= radius. Zero noise
    sigma reproduces the clean volume exactly. The volumes are filled one
    z-slice at a time, from the slices the ``phantom`` command writes as
    they are made.
    """
    passes = _passes(spec)
    shape = (spec.depth, spec.height, spec.width)
    clean, noisy, mask = np.empty(shape), np.empty(shape), np.empty(shape)
    for k, slices in enumerate(next(passes)):
        clean[k], noisy[k], mask[k] = slices
    channels = None
    if spec.channels is not None:
        channels = [np.empty(shape) for _ in spec.channels.sigmas]
        for vol, slices in zip(channels, passes):
            for k, sl in enumerate(slices):
                vol[k] = sl
    return PhantomOutput(
        clean=clean, noisy=noisy, truth_mask=mask, channels=channels, metadata=_metadata(spec)
    )


def generate_flow(spec: PhantomSpec) -> dict:
    """Per-channel directional flow projections of a channelized phantom.

    The clean maximum projection is split into X/Y/Z components by the
    weights 0.5, 0.3 and 0.2, each scaled by the channel sensitivity, with
    independent noise of sigma_k/sqrt(3) per component so the additive
    recombination carries noise sigma_k. Returns a dict with component
    lists, the projected clean image, and the projected tube mask, folded
    slice by slice from the phantom's first pass.
    """
    if spec.channels is None:
        raise ValueError("flow generation needs a channel spec")
    clean = mask = -np.inf
    for c, _, m in next(_passes(spec)):
        clean, mask = np.maximum(clean, c), np.maximum(mask, m)
    images = [img for _, img in _flow(spec, clean, mask)][:-2]  # c<k>_x, _y, _z per channel
    return {"x": images[0::3], "y": images[1::3], "z": images[2::3], "clean": clean, "mask": mask}


def _flow(spec: PhantomSpec, clean2d, mask2d):
    """Yield ``generate_flow``'s images of the max projections ``clean2d``
    and ``mask2d`` one at a time as (name, image), in draw order:
    ``c<k>_x``, ``c<k>_y``, ``c<k>_z`` per channel, ``flow_clean``, ``flow_mask``."""
    rng = np.random.default_rng(spec.seed + 1)
    comp_sigma_scale = 1.0 / math.sqrt(3.0)
    channels = zip(_sensitivity_maps(spec), spec.channels.sigmas)
    for k, (s_map, sig) in enumerate(channels, start=1):
        for axis, w in zip("xyz", (0.5, 0.3, 0.2)):
            img = w * clean2d * s_map
            if sig > 0:
                img = img + rng.normal(0.0, sig * comp_sigma_scale, size=img.shape)
            yield f"c{k}_{axis}", img
    yield "flow_clean", clean2d
    yield "flow_mask", mask2d


def dip_amplitude(projected, tube_mask) -> float:
    """Mean tube depth below the local baseline of a projected image.

    For every tube pixel the local baseline is the median of non-tube
    pixels inside the centred 9x9 window (clipped at borders, global
    non-tube median if the window has none); the dip is baseline minus
    pixel value, averaged over tube pixels.
    """
    img = as_field(projected)
    mask = as_field(tube_mask) > 0.5
    if img.shape != mask.shape:
        raise ValueError(f"shape mismatch {img.shape} vs {mask.shape}")
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        raise ValueError("tube mask is empty")
    outside = img[~mask]
    if outside.size == 0:
        raise ValueError("tube mask covers the whole image")
    global_baseline = float(np.median(outside))
    ny, nx = img.shape
    half = 4
    dips = np.empty(ys.size)
    for i, (y, x) in enumerate(zip(ys, xs)):
        y0, y1 = max(0, y - half), min(ny, y + half + 1)
        x0, x1 = max(0, x - half), min(nx, x + half + 1)
        win = img[y0:y1, x0:x1]
        wmask = mask[y0:y1, x0:x1]
        vals = win[~wmask]
        baseline = float(np.median(vals)) if vals.size else global_baseline
        dips[i] = baseline - img[y, x]
    return float(dips.mean())
