"""Diffusion filters: Perona-Malik, orthogonal-split, and adaptive directional.

The directional filter steers second-derivative smoothing or sharpening along
the gradient direction and the two principal curvature directions of the
per-pixel Hessian. Its per-direction weight is an odd sigmoid of the product
of structureness and the directional second derivative, so flat background is
left alone while curved structures are pushed: downward in ``mip_min`` mode
(deepens dark vessels before minimum projection), upward in ``mip`` mode.
The downward push alone is backward diffusion, so ``run_filter`` adds, in
``mip_min`` mode, forward diffusion along the gradient and minimum-curvature
directions: noise is smoothed away while the maximum-curvature direction,
the one across a vessel, only sharpens.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    _bundle,
    _eigenvalues,
    _gradient_term,
    _padded,
    _stencil,
    as_field,
    curvature_terms,
    structureness,
)

__all__ = [
    "PMParams",
    "AdaptiveParams",
    "HysteresisParams",
    "BoundPair",
    "FilterTrace",
    "DEFAULT_ALPHA",
    "MIP_MIN_NU",
    "pm_diffusivity",
    "pm_flux_second_derivative",
    "pm_step",
    "run_pm",
    "orthogonal_step",
    "run_orthogonal",
    "histogram_bounds",
    "adaptive_mu",
    "directional_step",
    "run_filter",
    "hysteresis_combine",
    "hysteresis_filter",
    "directional_ad_step",
    "run_directional_ad",
    "default_delta",
]

# Filter gain default, tuned on the synthetic phantom suite (see tests).
# With six iterations it keeps mip-mode channel scaling (criterion 7) in
# range. In mip_min mode gains of 3 and more still diverge, because the
# sharpening term then outgrows the smoothing below.
DEFAULT_ALPHA = 0.5

# Weight nu of the forward diffusion nu * (d_eta + d_e2) that run_filter adds
# to the mip_min sharpening term. Checked on phantom seeds 1234 and 1-4: 0.2
# leaves 54-56% of the background spread (criterion 3 allows 50%), 0.5
# smooths the min projection so far that its PSNR against the noisy input
# falls below the directional baseline's on seed 2 (criterion 4); 0.3 meets
# both on every seed.
MIP_MIN_NU = 0.3

# Pixels per row strip of the directional kernel (_update): each float64
# temporary of a strip is then about 64 KiB, so a strip's working set stays
# in a core's L2 cache and its temporaries, below glibc's default 128 KiB
# mmap threshold, are reused from the heap instead of being mapped and
# page-faulted in for every use.
_STRIP_PIXELS = 8192


@dataclass(frozen=True)
class PMParams:
    """Settings for the scalar diffusivity filters.

    delta is the edge-stopping contrast scale; dt the explicit step size,
    capped at 0.25 for 2-D stability.
    """

    delta: float
    dt: float = 0.25
    iterations: int = 10
    diffusivity_kind: str = "rational"

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not 0 < self.dt <= 0.25:
            raise ValueError("dt must lie in (0, 0.25] for explicit stability")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.diffusivity_kind not in ("rational", "exponential"):
            raise ValueError(f"unknown diffusivity kind {self.diffusivity_kind!r}")


@dataclass(frozen=True)
class BoundPair:
    """Open interval (ue_min, ue_max) gating the adaptive weight."""

    ue_min: float
    ue_max: float

    def __post_init__(self):
        if math.isnan(self.ue_min) or math.isnan(self.ue_max):
            raise ValueError("bounds must not be NaN")
        if self.ue_min > self.ue_max:
            raise ValueError("ue_min must not exceed ue_max")


@dataclass(frozen=True)
class AdaptiveParams:
    """Settings for the adaptive directional filter.

    mode selects the update sign and gating: ``mip_min`` pushes curved
    structure downward along all three directions, and ``run_filter`` adds
    forward diffusion of weight ``MIP_MIN_NU`` along eta and e2; ``mip``
    pushes upward along eta and e2 only, gated to directional derivatives
    inside histogram-derived bounds. alpha = 0 turns the filter into the
    identity.
    """

    alpha: float = DEFAULT_ALPHA
    mode: str = "mip_min"
    tail_prob: float = 0.05
    tolerance: float = 1e-4
    max_iterations: int = 6
    step: float = 0.2

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and non-negative")
        if self.mode not in ("mip", "mip_min"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.tail_prob < 0.5:
            raise ValueError("tail_prob must lie in (0, 0.5)")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be finite and positive")


@dataclass(frozen=True)
class HysteresisParams:
    """Gain pair and structureness threshold for two-pass combination."""

    alpha_low: float = 0.5
    alpha_high: float = 2.0
    c_threshold: float | None = None

    def __post_init__(self):
        for name in ("alpha_low", "alpha_high"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0 <= self.alpha_low < self.alpha_high:
            raise ValueError("need 0 <= alpha_low < alpha_high")
        if self.c_threshold is not None and not self.c_threshold >= 0:
            raise ValueError("c_threshold must be non-negative when given")


@dataclass
class FilterTrace:
    """Run record of the iterative directional filter.

    basis_sum holds the final iteration's raw per-pixel update before step
    scaling: sum(mu_i * d_i), plus MIP_MIN_NU * (d_eta + d_e2) in mip_min
    mode, so a one-iteration run gives out == in + step * basis_sum. It
    feeds the filter-synthesized channel scaling of multi-coil combination.
    """

    iterations: int
    relative_changes: list
    basis_sum: np.ndarray
    converged: bool

    def to_csv(self, path) -> None:
        _changes_csv(path, self.relative_changes)


def _changes_csv(path, relative_changes) -> None:
    """Write ``iteration,relative_change`` lines, one per iteration."""
    lines = ["iteration,relative_change"]
    lines += [
        f"{i + 1},{np.format_float_positional(r, trim='-')}"
        for i, r in enumerate(relative_changes)
    ]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def default_delta(field) -> float:
    """Contrast scale default: 10% of the field's dynamic range (1.0 if flat)."""
    u = as_field(field)
    span = float(u.max() - u.min())
    return 0.1 * span if span > 0 else 1.0


def _as_arr(x):
    return np.asarray(x, dtype=np.float64)


def pm_diffusivity(grad_mag, params: PMParams):
    """Edge-stopping diffusivity g(s): rational 1/(1+s^2/d^2) or exp(-s^2/d^2)."""
    s = _as_arr(grad_mag)
    r = (s * s) / (params.delta * params.delta)
    if params.diffusivity_kind == "rational":
        out = 1.0 / (1.0 + r)
    else:
        out = np.exp(-r)
    return out if out.ndim else float(out)


def pm_flux_second_derivative(grad_mag, params: PMParams):
    """Slope of the flux s*g(s): the second derivative of the smoothing energy.

    Rational kind: (1 - s^2/d^2) / (1 + s^2/d^2)^2.
    Exponential kind: (1 - 2 s^2/d^2) * exp(-s^2/d^2).
    Negative beyond s = delta (or delta/sqrt(2)), which is what halts
    smoothing across strong edges in the orthogonal split.
    """
    s = _as_arr(grad_mag)
    r = (s * s) / (params.delta * params.delta)
    if params.diffusivity_kind == "rational":
        out = (1.0 - r) / (1.0 + r) ** 2
    else:
        out = (1.0 - 2.0 * r) * np.exp(-r)
    return out if out.ndim else float(out)


def _run(u, step, iterations: int, tolerance: float, update):
    """The one iteration loop of the ``run_*`` filters: up to ``iterations``
    steps u <- u + step * update(u) of the validated field ``u``, where
    ``update`` returns the raw per-pixel update, stopping once the relative
    L2 change drops below ``tolerance`` (never, when it is 0). It works on a
    copy in buffers allocated once, so the caller's array is never written,
    and refuses to step from a NaN or Inf iterate, with the error of such
    an input. Returns ``(u, FilterTrace)``, the last update as ``basis_sum``."""
    u = u.copy()
    u_next = np.empty_like(u)
    scratch = np.empty_like(u)
    step_flat = scratch.ravel()
    changes: list[float] = []
    converged = False
    diff = 0.0
    for _ in range(iterations):
        # a finite norm of the last change means every pixel is finite
        if not math.isfinite(diff) and not np.isfinite(u).all():
            raise ValueError("field contains NaN or Inf values")
        du = update(u)
        np.multiply(step, du, out=u_next)
        np.add(u, u_next, out=u_next)
        # the sums np.linalg.norm takes, without its per-call overhead
        np.subtract(u_next, u, out=scratch)
        diff = math.sqrt(step_flat.dot(step_flat))
        u_flat = u.ravel()
        base = math.sqrt(u_flat.dot(u_flat))
        rel = 0.0 if diff == 0.0 else (math.inf if base == 0.0 else diff / base)
        changes.append(rel)
        u, u_next = u_next, u
        if rel < tolerance:
            converged = True
            break
    return u, FilterTrace(len(changes), changes, basis_sum=du, converged=converged)


def _pm_update(u, params: PMParams, faces=None):
    """Raw per-pixel update of ``pm_step``, read from the field ``u`` itself,
    so fields smaller than 3x3 run too. The face fluxes go into ``faces``
    (allocated when None): buffers of shapes (ny, nx + 1) and (ny + 1, nx)
    whose zero border faces are never written. Both differences are taken
    before they are summed, (fe - shift) + (fs - shift); another order
    rounds differently in the last bit."""
    ny, nx = u.shape
    fe, fs = (np.zeros((ny, nx + 1)), np.zeros((ny + 1, nx))) if faces is None else faces
    de = u[:, 1:] - u[:, :-1]
    ds = u[1:, :] - u[:-1, :]
    np.multiply(pm_diffusivity(np.abs(de), params), de, out=fe[:, 1:-1])
    np.multiply(pm_diffusivity(np.abs(ds), params), ds, out=fs[1:-1, :])
    return (fe[:, 1:] - fe[:, :-1]) + (fs[1:, :] - fs[:-1, :])


def pm_step(field, params: PMParams) -> np.ndarray:
    """One explicit conservative step of scalar edge-stopping diffusion.

    Fluxes live on half-pixel faces with the diffusivity evaluated from the
    face-normal difference; border faces carry zero flux, so the pixel sum
    is conserved to rounding.
    """
    u = as_field(field)
    return u + params.dt * _pm_update(u, params)


def run_pm(field, params: PMParams) -> np.ndarray:
    """Apply ``params.iterations`` explicit scalar diffusion steps; the input
    is validated once, and every step writes the same face buffers."""
    u = as_field(field)
    ny, nx = u.shape
    faces = np.zeros((ny, nx + 1)), np.zeros((ny + 1, nx))
    return _run(u, params.dt, params.iterations, 0.0,
                lambda v: _pm_update(v, params, faces))[0]


def _orthogonal_update(q, shape, params: PMParams):
    """Raw per-pixel update lam1 * D_o + lam2 * D_p of ``orthogonal_step``
    for a field of ``shape`` held in the padded buffer ``q`` (``fields._padded``),
    as a view of the stencil's pixel columns."""
    ny, nx = shape
    b = _stencil(q, nx, 0, ny)
    d_par, g2 = _gradient_term(b)
    d_ortho = np.where(g2 > 0.0, b.uxx + b.uyy - d_par, 0.0)
    gnorm = np.sqrt(g2)
    lam1 = pm_diffusivity(gnorm, params)
    lam2 = pm_flux_second_derivative(gnorm, params)
    return (lam1 * d_ortho + lam2 * d_par)[:, 1:-1]


def orthogonal_step(field, params: PMParams) -> np.ndarray:
    """One explicit step of the gradient/orthogonal split of the divergence.

    The update is lam1 * D_o + lam2 * D_p where D_o and D_p are the second
    derivatives across and along the gradient, lam1 = g(|grad u|) and
    lam2 = f''(|grad u|). D_p is the gradient term of ``curvature_terms`` and
    D_o the rest of the Laplacian. Pixels with zero gradient are left
    unchanged.
    """
    u = as_field(field)
    return u + params.dt * _orthogonal_update(_padded(u), u.shape, params)


def run_orthogonal(field, params: PMParams) -> np.ndarray:
    """Apply ``params.iterations`` orthogonal-split steps; the input is
    validated once, and every step refills one padded buffer."""
    u = as_field(field)
    q = _padded(u)
    return _run(u, params.dt, params.iterations, 0.0,
                lambda v: _orthogonal_update(_padded(v, q), v.shape, params))[0]


def _nearest_rank_index(q: float, n: int) -> int:
    # smallest 1-based rank k with k >= q*n, robust to float round-off
    x = q * n
    k = math.floor(x)
    if x - k > 1e-9:
        k += 1
    return min(max(k, 1), n) - 1


def histogram_bounds(d_e, tail_prob: float = 0.05) -> BoundPair:
    """Symmetric nearest-rank tail quantiles of a directional-derivative map.

    Returns the (tail_prob/2, 1 - tail_prob/2) nearest-rank quantiles, so
    Pr(d_e < ue_min) <= tail_prob/2 and Pr(d_e > ue_max) <= tail_prob/2 on
    the sample. Requires at least 100 values.
    """
    if not 0 < tail_prob < 0.5:
        raise ValueError("tail_prob must lie in (0, 0.5)")
    values = np.asarray(d_e, dtype=np.float64).ravel()
    n = values.size
    if n < 100:
        raise ValueError(f"histogram bounds need >= 100 pixels, got {n}")
    q = tail_prob / 2.0
    i = _nearest_rank_index(q, n)
    j = _nearest_rank_index(1.0 - q, n)
    # exact selection: rank i, then rank j among the values above it, found
    # in place in the partitioned copy (j > i, as tail_prob < 0.5 and n >= 100)
    s = np.partition(values, i)
    above = s[i + 1 :]
    above.partition(j - i - 1)
    return BoundPair(float(s[i]), float(above[j - i - 1]))


def _gate(t, d_e, bounds: BoundPair | None):
    """Weight t zeroed where d_e lies outside the open interval ``bounds``."""
    if bounds is None:
        return t
    return np.where((d_e > bounds.ue_min) & (d_e < bounds.ue_max), t, 0.0)


def adaptive_mu(c, d_e, alpha: float, mode: str = "mip_min", bounds: BoundPair | None = None):
    """Adaptive directional weight mu = -+ tanh(alpha * c * d_e / 2).

    ``mip_min`` returns the negative branch (curved structure is pushed
    down); ``mip`` returns the positive branch, zeroed outside the open
    interval ``bounds`` when bounds are given. Odd in d_e and confined to
    [-1, 1] by construction.
    """
    if mode not in ("mip", "mip_min"):
        raise ValueError(f"unknown mode {mode!r}")
    c_arr = _as_arr(c)
    d_arr = _as_arr(d_e)
    s = np.tanh(0.5 * alpha * c_arr * d_arr)
    out = -s if mode == "mip_min" else _gate(s, d_arr, bounds)
    return out if out.ndim else float(out)


def _update(q, params: AdaptiveParams, bounds: BoundPair | None, nu: float, out, maps=None):
    """Raw per-pixel update of one directional step, written into ``out``.

    ``q`` holds the field inside its reflective border (``fields._padded``).
    With t_i = tanh(alpha * c * d_i / 2), the weight of ``adaptive_mu``, and
    d_e1, d_e2 the Hessian eigenvalues lam_max, lam_min: ``mip_min`` gives
    (nu - t_eta) * d_eta + (nu - t_e2) * d_e2 - t_e1 * d_e1, the sharpening
    sum plus forward diffusion nu * (d_eta + d_e2); ``mip`` gives
    t_eta * d_eta + t_e2 * d_e2 with each weight gated to its bounds, which
    are histogram-derived when ``bounds`` is None and the field has at least
    100 pixels.

    The stencil, curvature terms and weights run over strips of
    ``_STRIP_PIXELS // width`` rows (at least one). ``mip`` mode first fills
    its d_eta, d_e2 and k = alpha * c / 2 maps into ``maps`` (a (3, ny, nx)
    buffer, allocated when None), takes the bounds from the whole maps, then
    gates and sums strip by strip. Every pixel sees the arithmetic of a
    whole-slice evaluation, so the result is the same bit for bit.
    """
    ny, nx = out.shape
    rows = max(1, _STRIP_PIXELS // nx)
    strips = [slice(r0, min(r0 + rows, ny)) for r0 in range(0, ny, rows)]
    h = 0.5 * params.alpha
    if params.mode == "mip_min":
        for s in strips:
            d_eta, d_e1, d_e2, c = curvature_terms(_stencil(q, nx, s.start, s.stop))
            k = h * c
            t = (nu - np.tanh(k * d_eta)) * d_eta + (nu - np.tanh(k * d_e2)) * d_e2
            out[s] = (t - np.tanh(k * d_e1) * d_e1)[:, 1:-1]
        return out
    d_eta, d_e2, k = np.empty((3, ny, nx)) if maps is None else maps
    for s in strips:
        d_eta_s, _, d_e2_s, c = curvature_terms(_stencil(q, nx, s.start, s.stop))
        d_eta[s] = d_eta_s[:, 1:-1]
        d_e2[s] = d_e2_s[:, 1:-1]
        np.multiply(h, c[:, 1:-1], out=k[s])
    b_eta = b_e2 = bounds
    if bounds is None and out.size >= 100:
        b_eta = histogram_bounds(d_eta, params.tail_prob)
        b_e2 = histogram_bounds(d_e2, params.tail_prob)
    for s in strips:
        t_eta = _gate(np.tanh(k[s] * d_eta[s]), d_eta[s], b_eta)
        t_e2 = _gate(np.tanh(k[s] * d_e2[s]), d_e2[s], b_e2)
        np.add(t_eta * d_eta[s], t_e2 * d_e2[s], out=out[s])
    return out


def directional_step(field, params: AdaptiveParams, bounds: BoundPair | None = None) -> np.ndarray:
    """One explicit sharpening step u <- u + step * sum(mu_i * d_i).

    ``bounds`` may be None (mip mode derives per-direction histogram bounds
    when the field has at least 100 pixels) or one BoundPair shared by both
    directions. No forward diffusion is added in either mode. alpha = 0
    returns the input unchanged, bit for bit.
    """
    u = as_field(field)
    if params.alpha == 0:
        return u.copy()
    return u + params.step * _update(_padded(u), params, bounds, 0.0, np.empty_like(u))


def run_filter(field, params: AdaptiveParams) -> tuple[np.ndarray, FilterTrace]:
    """Iterate the directional filter until the relative L2 change drops
    below tolerance or max_iterations is reached.

    Each iteration is u <- u + step * update. In ``mip`` mode the update is
    ``directional_step``'s sharpening term; in ``mip_min`` mode it is that
    term plus forward diffusion MIP_MIN_NU * (d_eta + d_e2), both taken from
    one derivative evaluation. alpha = 0 leaves the input unchanged.
    Non-convergence is reported in the trace, not raised."""
    u = as_field(field)
    if params.alpha == 0:
        return u.copy(), FilterTrace(
            iterations=1, relative_changes=[0.0], basis_sum=np.zeros_like(u), converged=True
        )
    ny, nx = u.shape
    q = np.empty((ny + 2) * (nx + 2) + 2)
    update = np.empty_like(u)
    nu = MIP_MIN_NU if params.mode == "mip_min" else 0.0
    maps = []

    def kernel(v):
        # mip mode's maps come after the loop's buffers, so that freed they
        # leave no hole below the result (+6 MiB peak RSS on coils_512)
        if params.mode == "mip" and not maps:
            maps.append(np.empty((3, ny, nx)))
        return _update(_padded(v, q), params, None, nu, update, *maps)

    return _run(u, params.step, params.max_iterations, params.tolerance, kernel)


def hysteresis_combine(low, high, c_ref, params: HysteresisParams) -> np.ndarray:
    """Select the high-gain result where reference structureness exceeds the
    threshold, the low-gain result elsewhere."""
    lo = as_field(low)
    hi = as_field(high)
    c = as_field(c_ref)
    if lo.shape != hi.shape or lo.shape != c.shape:
        raise ValueError("hysteresis inputs must share one shape")
    if params.c_threshold is None:
        raise ValueError("c_threshold must be resolved before combining")
    return np.where(c > params.c_threshold, hi, lo)


def hysteresis_filter(field, params: AdaptiveParams, hparams: HysteresisParams):
    """Two-pass filtering: run at alpha_low and alpha_high, pick the high
    result where the better run shows strong structure.

    The structureness reference comes from whichever run changed the input
    less (larger PSNR against the input); the default threshold is its 90th
    percentile. Returns (combined, low_result, high_result).
    """
    from .metrics import psnr_vs_input

    u = as_field(field)
    low_out, _ = run_filter(u, replace(params, alpha=hparams.alpha_low))
    high_out, _ = run_filter(u, replace(params, alpha=hparams.alpha_high))
    p_low = psnr_vs_input(u, low_out)
    p_high = psnr_vs_input(u, high_out)
    ref = low_out if p_low >= p_high else high_out
    # psnr_vs_input has validated both results
    c_ref = structureness(_bundle(ref))
    threshold = hparams.c_threshold
    if threshold is None:
        threshold = float(np.quantile(c_ref, 0.9))
    resolved = replace(hparams, c_threshold=threshold)
    return hysteresis_combine(low_out, high_out, c_ref, resolved), low_out, high_out


def _directional_ad_update(q, shape, params: PMParams, grad_threshold: float):
    """Raw per-pixel update of ``directional_ad_step`` for a field of
    ``shape`` held in the padded buffer ``q``, as a view of the stencil's
    pixel columns."""
    ny, nx = shape
    b = _stencil(q, nx, 0, ny)
    d_eta, g2 = _gradient_term(b)
    d_e1, d_e2, _ = _eigenvalues(b.uxx, b.uxy, b.uyy)
    gnorm = np.sqrt(g2)
    g = pm_diffusivity(gnorm, params)
    g_e1 = np.where(gnorm > grad_threshold, 0.0, g)
    return (g * d_eta + g_e1 * d_e1 + g * d_e2)[:, 1:-1]


def directional_ad_step(field, params: PMParams, grad_threshold: float) -> np.ndarray:
    """One step of gradient-switched directional diffusion.

    All three directional terms diffuse with the scalar edge-stopping
    diffusivity; the maximum-curvature term is switched off across strong
    edges (|grad u| > grad_threshold) so contours are not smeared.
    """
    u = as_field(field)
    return u + params.dt * _directional_ad_update(_padded(u), u.shape, params, grad_threshold)


def run_directional_ad(field, params: PMParams, grad_threshold: float | None = None) -> np.ndarray:
    """Iterate the gradient-switched filter. The threshold defaults to the
    90th percentile of the input's gradient magnitude and stays fixed."""
    u = as_field(field)
    q = _padded(u)
    if grad_threshold is None:
        g2 = _gradient_term(_stencil(q, u.shape[1], 0, u.shape[0]))[1]
        grad_threshold = float(np.quantile(np.sqrt(g2[:, 1:-1]), 0.9))
    return _run(u, params.dt, params.iterations, 0.0,
                lambda v: _directional_ad_update(_padded(v, q), v.shape, params, grad_threshold))[0]
