"""Whole-slice reference kernels that the library's strip kernels are
tested against bit for bit.

The neighbour views, the stencil, the gradient term, the eigenvalues and
the structureness are kept here as the library wrote them before its strip
kernels carried the stencil's factors of two: every derivative at its own
scale, ux = (e - w)/2 and uxy = ((se - ne) - (sw - nw))/4, read from all
eight neighbours. The references run them on whole slices, allocating every
temporary, with the library's padding and PM weights, and a whole-slice
gate of their own."""
from dataclasses import dataclass

import numpy as np

from mipdiff.diffusion import BoundPair, PMParams, _pm_weights, _run, _Workspace
from mipdiff.fields import _padded, as_field


# (dy, dx) of the nine stencil points, in the order of _neighbours
_OFFSETS = ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, 1), (1, -1), (-1, -1))


def _neighbours(q, nx: int, r0: int, r1: int):
    """Views of field rows r0:r1 and of their eight neighbours, read from the
    padded buffer ``q`` of ``_padded`` for a field ``nx`` wide: centre, e, w,
    s, n, se, ne, sw, nw.

    Each view has shape (r1 - r0, nx + 2): every neighbour is one contiguous
    range of whole padded rows, shifted, so the arithmetic runs on
    contiguous memory. Columns 1..nx are the pixels; columns 0 and nx + 1
    mix border and wrapped-around values and belong to no pixel.
    """
    width = nx + 2
    a = (r0 + 1) * width + 1
    b = (r1 + 1) * width + 1
    return tuple(q[a + o : b + o].reshape(r1 - r0, width)
                 for o in (dy * width + dx for dy, dx in _OFFSETS))


@dataclass(frozen=True)
class DerivativeBundle:
    """First and second central-difference derivatives, as ``_stencil``
    returns them."""

    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray
    uyy: np.ndarray
    uxy: np.ndarray


def _stencil(nb, out=None) -> DerivativeBundle:
    """Derivative bundle of the neighbour views ``nb`` of ``_neighbours``.
    The one stencil of this module.

    Written into ``out`` when given: ux, uy, uxx, uyy, uxy and one scratch
    array, all of the views' shape, so that a kernel can refill one
    workspace instead of allocating.
    """
    u, e, w, s, n, se, ne, sw, nw = nb
    ux, uy, uxx, uyy, uxy, tmp = out or (None,) * 6
    ux = np.subtract(e, w, out=ux)
    np.multiply(0.5, ux, out=ux)
    uy = np.subtract(s, n, out=uy)
    np.multiply(0.5, uy, out=uy)
    tmp = np.multiply(2.0, u, out=tmp)
    uxx = np.subtract(e, tmp, out=uxx)
    np.add(uxx, w, out=uxx)
    uyy = np.subtract(s, tmp, out=uyy)
    np.add(uyy, n, out=uyy)
    uxy = np.subtract(se, ne, out=uxy)
    np.subtract(sw, nw, out=tmp)
    np.subtract(uxy, tmp, out=uxy)
    np.multiply(0.25, uxy, out=uxy)
    return DerivativeBundle(ux=ux, uy=uy, uxx=uxx, uyy=uyy, uxy=uxy)


def _eigenvalues(a, b, c, out=None):
    # closed-form eigenvalues half +- disc of [[a, b], [b, c]], and disc,
    # written into out = (lam_max, lam_min, disc) when given
    hi, lo, disc = out or (None,) * 3
    lo = np.add(a, c, out=lo)
    np.multiply(0.5, lo, out=lo)  # half
    disc = np.subtract(a, c, out=disc)
    np.square(disc, out=disc)
    np.multiply(0.25, disc, out=disc)
    hi = np.multiply(b, b, out=hi)
    np.add(disc, hi, out=disc)
    np.sqrt(disc, out=disc)
    np.add(lo, disc, out=hi)
    np.subtract(lo, disc, out=lo)
    return hi, lo, disc


def _structureness(uxx, uyy, out=None):
    # structureness, written into out = (c, scratch) when given
    c, sq = out or (None, None)
    c = np.square(uxx, out=c)
    sq = np.square(uyy, out=sq)
    np.add(c, sq, out=c)
    return np.sqrt(c, out=c)


def _gradient_term(bundle: DerivativeBundle, out=None):
    """``(d_eta, g2)``: the second derivative along the unit gradient,
    (ux^2 uxx + 2 ux uy uxy + uy^2 uyy) / g2 and 0 where the gradient
    vanishes, and the squared gradient norm g2 = ux^2 + uy^2.

    Written into ``out`` when given: d_eta, g2, two scratch arrays and a
    bool mask. d_eta is cleared before the masked divide, so a reused
    buffer gives exactly 0 where the gradient vanishes."""
    d_eta, g2, num, yy, mask = out or (None,) * 5
    ux, uy = bundle.ux, bundle.uy
    num = np.multiply(ux, ux, out=num)  # ux^2, then the numerator
    yy = np.multiply(uy, uy, out=yy)
    g2 = np.add(num, yy, out=g2)
    np.multiply(num, bundle.uxx, out=num)
    d_eta = np.multiply(2.0, ux, out=d_eta)  # the cross term, then d_eta
    np.multiply(d_eta, uy, out=d_eta)
    np.multiply(d_eta, bundle.uxy, out=d_eta)
    np.add(num, d_eta, out=num)
    np.multiply(yy, bundle.uyy, out=yy)
    np.add(num, yy, out=num)
    mask = np.greater(g2, 0.0, out=mask)
    d_eta.fill(0.0)
    return np.divide(num, g2, out=d_eta, where=mask), g2


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
    The filters' strip kernels compute the same terms on row strips, and
    this whole-slice evaluation is the reference they are tested against,
    bit for bit.
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


def _gate(t, d_e, bounds: BoundPair | None):
    """Weight t set to +0 where d_e lies outside the open interval
    ``bounds``, over the whole slice; unchanged without bounds."""
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
    ws = _Workspace(u)

    def update(v):
        _padded(v, ws.q, zero=True)  # where _run reads the old iterate
        return pm_update(v, params, faces)

    return _run(ws, u, params.dt, params.iterations, 0.0, update)[0]
