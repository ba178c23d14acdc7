"""Whole-slice reference kernels that the library's strip kernels are
tested against bit for bit.

They call the same private primitives as the strip kernels (the stencil,
the eigenvalues, the PM weights, the gate), on whole slices and
allocating every temporary."""
import numpy as np

from mipdiff.diffusion import BoundPair, PMParams, _gate, _pm_weights, _run
from mipdiff.fields import (
    DerivativeBundle,
    _eigenvalues,
    _gradient_term,
    _neighbours,
    _padded,
    _stencil,
    _structureness,
    as_field,
)


def derivatives(field) -> DerivativeBundle:
    """Central-difference derivative bundle with reflective borders.

    The reflective extension mirrors about the border pixel, so first
    derivatives vanish at the border and second derivatives stay consistent
    with the interior stencil. Requires at least a 3x3 field.
    """
    u = as_field(field)
    ny, nx = u.shape
    b = _stencil(_neighbours(_padded(u), nx, 0, ny))
    # the pixel columns, copied out so that the arrays are contiguous
    return DerivativeBundle(**{name: v[:, 1:-1].copy() for name, v in vars(b).items()})


def structureness(bundle: DerivativeBundle) -> np.ndarray:
    """Pointwise structure strength sqrt(uxx^2 + uyy^2)."""
    return _structureness(bundle.uxx, bundle.uyy)


def curvature_terms(bundle: DerivativeBundle):
    """Second derivatives along the gradient and the principal curvature
    directions, without building any direction.

    Returns ``(d_eta, lam_max, lam_min, c)``. d_eta is the second derivative
    along the unit gradient, (ux^2 uxx + 2 ux uy uxy + uy^2 uyy) / |grad u|^2,
    and 0 where the gradient vanishes. lam_max and lam_min are the Hessian
    eigenvalues: v^T H v of a unit eigenvector is its eigenvalue, so they are
    the second derivatives along the principal curvature directions, and
    both are 0 for a zero Hessian. c is the structureness sqrt(uxx^2 + uyy^2).
    The filters' strip kernels run the same ``_gradient_term``,
    ``_eigenvalues`` and ``_structureness`` on row strips, and this
    whole-slice evaluation is the reference they are tested against, bit
    for bit.
    """
    lam_max, lam_min, _ = _eigenvalues(bundle.uxx, bundle.uxy, bundle.uyy)
    c = _structureness(bundle.uxx, bundle.uyy)
    return _gradient_term(bundle)[0], lam_max, lam_min, c


def _as_arr(x):
    return np.asarray(x, dtype=np.float64)


def pm_diffusivity(grad_mag, params: PMParams):
    """Edge-stopping diffusivity g(s): rational 1/(1+s^2/d^2) or exp(-s^2/d^2)."""
    out = _pm_weights(_as_arr(grad_mag), params, slope=False)[0]
    return out if out.ndim else float(out)


def pm_flux_second_derivative(grad_mag, params: PMParams):
    """Slope of the flux s*g(s): the second derivative of the smoothing energy.

    Rational kind: (1 - s^2/d^2) / (1 + s^2/d^2)^2.
    Exponential kind: (1 - 2 s^2/d^2) * exp(-s^2/d^2).
    Negative beyond s = delta (or delta/sqrt(2)), which is what halts
    smoothing across strong edges in the orthogonal split.
    """
    out = _pm_weights(_as_arr(grad_mag), params)[1]
    return out if out.ndim else float(out)


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


def pm_update(u, params: PMParams, faces):
    """Raw per-pixel update of ``run_pm`` on a (k, ny, nx) stack, read from
    the fields ``u`` themselves, so fields smaller than 3x3 run too. The
    face fluxes go into ``faces``: buffers of shapes (k, ny, nx + 1) and
    (k, ny + 1, nx) whose zero border faces are never written. Both
    differences are taken along the last two axes, and before they are
    summed, (fe - shift) + (fs - shift); another order rounds differently
    in the last bit."""
    fe, fs = faces
    de = u[..., 1:] - u[..., :-1]
    ds = u[..., 1:, :] - u[..., :-1, :]
    np.multiply(pm_diffusivity(de, params), de, out=fe[..., 1:-1])
    np.multiply(pm_diffusivity(ds, params), ds, out=fs[..., 1:-1, :])
    return (fe[..., 1:] - fe[..., :-1]) + (fs[..., 1:, :] - fs[..., :-1, :])


def pm_stack(u, params: PMParams) -> np.ndarray:
    """``run_pm`` of each slice of the validated (k, ny, nx) stack ``u``."""
    k, ny, nx = u.shape
    faces = np.zeros((k, ny, nx + 1)), np.zeros((k, ny + 1, nx))
    return _run(u, params.dt, params.iterations, 0.0,
                lambda v: pm_update(v, params, faces))[0]
