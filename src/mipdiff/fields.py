"""Grid containers and finite-difference machinery for 2-D intensity fields.

A field is a plain ``float64`` array of shape ``(height, width)`` with x the
fast (column) axis; a volume is a stack of fields with shape
``(depth, height, width)``. All stencils are central differences on a unit
grid with reflective borders, u(-1, y) = u(1, y).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_field",
    "as_volume",
    "DerivativeBundle",
    "derivatives",
    "hessian_eigen",
    "directional_second_derivative",
    "structureness",
    "curvature_terms",
]


def as_field(data) -> np.ndarray:
    """Coerce ``data`` to a finite float64 2-D field, validating shape."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-D field, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("field contains NaN or Inf values")
    return arr


def as_volume(data) -> np.ndarray:
    """Coerce ``data`` to a finite float64 volume of shape (depth, height, width)."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 3 or min(arr.shape) < 1:
        raise ValueError(f"expected a 3-D volume, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("volume contains NaN or Inf values")
    return arr


@dataclass(frozen=True)
class DerivativeBundle:
    """First and second central-difference derivatives of a field."""

    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray
    uyy: np.ndarray
    uxy: np.ndarray


def derivatives(field) -> DerivativeBundle:
    """Central-difference derivative bundle with reflective borders.

    The reflective extension mirrors about the border pixel, so first
    derivatives vanish at the border and second derivatives stay consistent
    with the interior stencil. Requires at least a 3x3 field.
    """
    return _bundle(as_field(field))


def _padded(u, out=None) -> np.ndarray:
    """The validated field ``u`` inside a one-pixel reflective border, as a
    flat buffer: ``q[1:-1]`` is ``np.pad(u, 1, mode="reflect")`` row by row,
    and ``q[0]``, ``q[-1]`` are zero spares that let ``_stencil`` shift whole
    padded rows by one pixel.

    Written into ``out`` (``(ny + 2) * (nx + 2) + 2`` values) when given, so
    an iteration can refill one workspace instead of allocating a copy.
    """
    ny, nx = u.shape
    if ny < 3 or nx < 3:
        raise ValueError(f"derivative stencils need at least 3x3, got {ny}x{nx}")
    q = np.empty((ny + 2) * (nx + 2) + 2) if out is None else out
    q[0] = q[-1] = 0.0
    p = q[1:-1].reshape(ny + 2, nx + 2)
    p[1:-1, 1:-1] = u
    p[0] = p[2]
    p[-1] = p[-3]
    p[:, 0] = p[:, 2]
    p[:, -1] = p[:, -3]
    return q


def _stencil(q, nx: int, r0: int, r1: int) -> DerivativeBundle:
    """Derivative bundle of field rows r0:r1, read from the padded buffer
    ``q`` of ``_padded`` for a field ``nx`` wide. The one stencil of this
    module.

    Each array has shape (r1 - r0, nx + 2): every neighbour is one
    contiguous range of whole padded rows, shifted, so the arithmetic runs
    on contiguous memory. Columns 1..nx are the pixels; columns 0 and
    nx + 1 mix border and wrapped-around values and belong to no pixel.
    """
    width = nx + 2
    a = (r0 + 1) * width + 1
    b = (r1 + 1) * width + 1

    def at(dy, dx):
        o = dy * width + dx
        return q[a + o : b + o].reshape(r1 - r0, width)

    u, e, w, s, n = at(0, 0), at(0, 1), at(0, -1), at(1, 0), at(-1, 0)
    ux = 0.5 * (e - w)
    uy = 0.5 * (s - n)
    uxx = e - 2.0 * u + w
    uyy = s - 2.0 * u + n
    uxy = 0.25 * ((at(1, 1) - at(-1, 1)) - (at(1, -1) - at(-1, -1)))
    return DerivativeBundle(ux=ux, uy=uy, uxx=uxx, uyy=uyy, uxy=uxy)


def _bundle(u) -> DerivativeBundle:
    """``derivatives`` of an already validated field, without scanning it
    again. The pixel columns are copied out, so the arrays are contiguous."""
    ny, nx = u.shape
    b = _stencil(_padded(u), nx, 0, ny)
    return DerivativeBundle(**{name: v[:, 1:-1].copy() for name, v in vars(b).items()})


def _fix_sign(vx, vy):
    # orient so the larger-magnitude component is non-negative; ties toward
    # non-negative x. Adding 0.0 clears negative zeros.
    dominant = np.where(np.abs(vx) >= np.abs(vy), vx, vy)
    flip = dominant < 0.0
    sign = np.where(flip, -1.0, 1.0)
    return vx * sign + 0.0, vy * sign + 0.0


def _eigenvalues(a, b, c):
    # closed-form eigenvalues half +- disc of [[a, b], [b, c]], and disc
    half = 0.5 * (a + c)
    disc = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    return half + disc, half - disc, disc


def hessian_eigen(bundle: DerivativeBundle):
    """Closed-form eigen decomposition of the per-pixel 2x2 Hessian.

    Returns ``(lam_max, lam_min, e1x, e1y, e2x, e2y)``. Eigenvectors are unit
    length with the larger-magnitude component non-negative. A zero Hessian
    yields (0, 0) directions; an isotropic (tied) Hessian yields the axis
    pair e1 = (1, 0), e2 = (0, 1).
    """
    a, b, c = bundle.uxx, bundle.uxy, bundle.uyy
    lam_max, lam_min, disc = _eigenvalues(a, b, c)

    # candidate eigenvectors for lam_max: the columns of (H - lam_min I).
    # Both have non-negative leading entries; pick the better conditioned one.
    ca_x, ca_y = a - lam_min, b
    cb_x, cb_y = b, c - lam_min
    use_a = ca_x * ca_x + ca_y * ca_y >= cb_x * cb_x + cb_y * cb_y
    vx = np.where(use_a, ca_x, cb_x)
    vy = np.where(use_a, ca_y, cb_y)
    norm = np.sqrt(vx * vx + vy * vy)
    safe = np.where(norm > 0.0, norm, 1.0)
    e1x = vx / safe
    e1y = vy / safe
    # rotate by 90 degrees for the orthogonal eigenvector of lam_min
    e2x = -e1y
    e2y = e1x

    zero = (a == 0.0) & (b == 0.0) & (c == 0.0)
    tie = (disc == 0.0) & ~zero
    e1x = np.where(tie, 1.0, e1x)
    e1y = np.where(tie, 0.0, e1y)
    e2x = np.where(tie, 0.0, e2x)
    e2y = np.where(tie, 1.0, e2y)
    for arr in (e1x, e1y, e2x, e2y):
        arr[zero] = 0.0

    e1x, e1y = _fix_sign(e1x, e1y)
    e2x, e2y = _fix_sign(e2x, e2y)
    return lam_max, lam_min, e1x, e1y, e2x, e2y


def directional_second_derivative(bundle: DerivativeBundle, direction):
    """Second derivative v^T H v along per-pixel (or constant) direction v.

    ``direction`` is a pair (vx, vy) of scalars or arrays broadcastable to the
    field shape. Zero directions give zero by construction.
    """
    vx, vy = direction
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    return (
        vx * vx * bundle.uxx
        + 2.0 * vx * vy * bundle.uxy
        + vy * vy * bundle.uyy
    )


def structureness(bundle: DerivativeBundle) -> np.ndarray:
    """Pointwise structure strength sqrt(uxx^2 + uyy^2)."""
    return np.sqrt(bundle.uxx**2 + bundle.uyy**2)


def _gradient_term(bundle: DerivativeBundle):
    """``(d_eta, g2)``: the second derivative along the unit gradient,
    (ux^2 uxx + 2 ux uy uxy + uy^2 uyy) / g2 and 0 where the gradient
    vanishes, and the squared gradient norm g2 = ux^2 + uy^2."""
    ux, uy = bundle.ux, bundle.uy
    xx = ux * ux
    yy = uy * uy
    g2 = xx + yy
    num = xx * bundle.uxx + 2.0 * ux * uy * bundle.uxy + yy * bundle.uyy
    return np.divide(num, g2, out=np.zeros_like(g2), where=g2 > 0.0), g2


def curvature_terms(bundle: DerivativeBundle):
    """Second derivatives along the gradient and the principal curvature
    directions, without building any direction.

    Returns ``(d_eta, lam_max, lam_min, c)``. d_eta is the second derivative
    along the unit gradient, (ux^2 uxx + 2 ux uy uxy + uy^2 uyy) / |grad u|^2,
    and 0 where the gradient vanishes. lam_max and lam_min are the Hessian
    eigenvalues: v^T H v of a unit eigenvector is its eigenvalue, so they are
    the second derivatives along the principal curvature directions, and
    both are 0 for a zero Hessian. c is the structureness sqrt(uxx^2 + uyy^2).
    Every directional filter step takes its curvatures from here, or from
    the same ``_gradient_term`` and ``_eigenvalues`` when it needs fewer.
    """
    lam_max, lam_min, _ = _eigenvalues(bundle.uxx, bundle.uxy, bundle.uyy)
    return _gradient_term(bundle)[0], lam_max, lam_min, structureness(bundle)
