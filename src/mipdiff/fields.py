"""Field validation and the finite-difference primitives of the filters.

A field is a plain ``float64`` array of shape ``(height, width)`` with x the
fast (column) axis; a volume is a stack of fields with shape
``(depth, height, width)``. The stencil is central differences on a unit
grid with reflective borders, u(-1, y) = u(1, y). The private helpers here
(padding, neighbour views, the stencil, the gradient term, the Hessian
eigenvalues and the structureness) are what the strip kernels of
``diffusion`` run on one row strip at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["as_field", "as_volume"]


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
    """First and second central-difference derivatives, as ``_stencil``
    returns them."""

    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray
    uyy: np.ndarray
    uxy: np.ndarray


def _padded(u, out=None, zero=False) -> np.ndarray:
    """The validated field ``u`` inside a one-pixel border, as a flat buffer:
    ``q[1:-1]`` is ``np.pad(u, 1, mode="reflect")`` row by row, or with
    ``zero`` ``np.pad(u, 1)``, a zero border that ``run_pm``'s kernel sets
    and that takes fields smaller than 3x3; ``q[0]``, ``q[-1]`` are zero
    spares that let ``_neighbours`` shift whole padded rows by one pixel.

    A (k, ny, nx) stack of fields is padded slice by slice, the padded
    slices back to back: ``q`` then reads as the padded buffer of one tall
    field of ``k * (ny + 2) - 2`` rows, in which slice i is rows
    ``i * (ny + 2)`` to ``i * (ny + 2) + ny - 1`` and the two rows between
    slices are their pad rows. A pixel's stencil reads only its own
    slice's padded rows.

    Written into ``out`` (``k * (ny + 2) * (nx + 2) + 2`` values) when
    given, so an iteration can refill one workspace instead of allocating a
    copy.
    """
    ny, nx = u.shape[-2:]
    if not zero and (ny < 3 or nx < 3):
        raise ValueError(f"derivative stencils need at least 3x3, got {ny}x{nx}")
    k = u.size // (ny * nx)
    q = np.empty(k * (ny + 2) * (nx + 2) + 2) if out is None else out
    q[0] = q[-1] = 0.0
    p = q[1:-1].reshape(k, ny + 2, nx + 2)
    p[:, 1:-1, 1:-1] = u
    if zero:
        p[:, 0] = p[:, -1] = p[..., 0] = p[..., -1] = 0.0
        return q
    p[:, 0] = p[:, 2]
    p[:, -1] = p[:, -3]
    p[..., 0] = p[..., 2]
    p[..., -1] = p[..., -3]
    return q


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
