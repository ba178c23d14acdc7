"""Field validation and the finite-difference primitives of the filters.

A field is a plain ``float64`` array of shape ``(height, width)`` with x the
fast (column) axis; a volume is a stack of fields with shape
``(depth, height, width)``. The stencil is central differences on a unit
grid with reflective borders, u(-1, y) = u(1, y). The private helpers here
(padding, neighbour views, the gradient strip, the gradient norm and the
Hessian eigenvalues) are what the strip kernels of ``diffusion`` run on one
row strip at a time.

The stencil carries the factors of two of its central differences instead
of applying them, and only this module takes them out:
``_gradient_strip`` gives a = e - w = 2 ux, d = s - n = 2 uy and
b2 = 2 uxy, and d_eta's quotient has four times each term above and below;
the discriminant of ``_eigenvalues`` is a quarter of (uxx - uyy)^2 + b2^2,
and ``_gradient_norm`` scales a^2 + d^2 by a quarter. Scaling by a power of
two is exact in float64's normal range, so every result is that of the
derivatives at their own size, bit for bit, on float32 input
(``_gradient_strip`` gives the range).
"""
from __future__ import annotations

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


# (dy, dx) of the five stencil points, in the order of _neighbours
_OFFSETS = ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0))


def _neighbours(q, nx: int, r0: int, r1: int):
    """Views of field rows r0:r1 and of their four neighbours, read from the
    padded buffer ``q`` of ``_padded`` for a field ``nx`` wide: centre, e, w,
    s and n. No diagonal is needed: ``_gradient_strip`` reads the mixed
    derivative from s - n, flat.

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


def _gradient_strip(nb, buf):
    """``(d_eta, g4)`` of one strip, from its neighbour views ``nb``,
    written into its nine buffers ``buf`` (``diffusion._Workspace``): the
    second derivative along the unit gradient,
    d_eta = (a^2 uxx + (a d) b2 + d^2 uyy) / g4, 0 where the gradient
    vanishes, in buffer 0; g4 = a^2 + d^2, four times the squared gradient
    norm, in buffer 7; the mask g4 > 0 in the bool buffer 8. The Hessian
    diagonal uxx = (e - 2u) + w, uyy = (s - 2u) + n and b2 stay in buffers
    2, 3 and 4; buffers 1, 5 and 6 are free again. Each term of d_eta's quotient is
    four times that of (ux^2 uxx + 2 ux uy uxy + uy^2 uyy) / (ux^2 + uy^2).
    d_eta is cleared before the masked divide, so a reused buffer gives
    exactly 0 where the gradient vanishes.

    Read flat, the south-east minus north-east difference of a point is d
    one element on, and south-west minus north-west d one element back, so
    b2 = (d[+1] - d[-1]) / 2 needs no diagonal view. Its first and last
    elements have no such neighbours and belong to no pixel (the views'
    columns 0 and nx + 1); they are set to 0.

    Scaling by a power of two is exact while every value stays normal and
    finite, so the results are those of the derivatives at their own size,
    bit for bit, on the float32 MIPVOL input of every CLI run: a nonzero
    difference of float32 values held in float64 lies between 2^-149
    (about 1.4e-45) and 2^129 (about 6.8e38), and once iterates carry
    float64 bits its lower end is the float64 spacing at 2^-149, 2^-201
    (about 3e-61). Products of three such differences, the most any term
    multiplies, then lie within about [1e-182, 1e117], and their sums and
    quotients in a like range, far inside float64's normal range
    [2.2e-308, 1.8e308]. Arbitrary float64 input can leave that range and
    round differently in the last bit; the tests hold the kernels to the
    references on float32 fields near 1e-38, 1e38 and in float32's
    subnormal range."""
    u, e, w, s, n = nb
    a, d, uxx, uyy, b2, num, yy, g4, mask = buf
    np.subtract(e, w, a)
    np.subtract(s, n, d)
    np.multiply(2.0, u, num)
    np.subtract(e, num, uxx)
    np.add(uxx, w, uxx)
    np.subtract(s, num, uyy)
    np.add(uyy, n, uyy)
    flat, b = d.reshape(-1), b2.reshape(-1)
    np.subtract(flat[2:], flat[:-2], b[1:-1])
    np.multiply(0.5, b, b)
    b[0] = b[-1] = 0.0
    np.multiply(a, a, num)  # a^2, then the numerator
    np.multiply(d, d, yy)
    np.add(num, yy, g4)
    np.multiply(num, uxx, num)
    np.multiply(a, d, a)  # the cross term, then d_eta
    np.multiply(a, b2, a)
    np.add(num, a, num)
    np.multiply(yy, uyy, yy)
    np.add(num, yy, num)
    np.greater(g4, 0.0, mask)
    a.fill(0.0)
    return np.divide(num, g4, a, where=mask), g4


def _gradient_norm(g4):
    """|grad u| = sqrt(g4 / 4), in g4's array."""
    np.multiply(0.25, g4, g4)
    return np.sqrt(g4, g4)


def _eigenvalues(a, b2, c, out):
    """Closed-form eigenvalues half +- disc of [[a, b], [b, c]], and disc,
    from b2 = 2 b, written into ``out = (lam_max, lam_min, disc)``:
    disc^2 = ((a - c)^2 + b2^2) / 4."""
    hi, lo, disc = out
    np.add(a, c, lo)
    np.multiply(0.5, lo, lo)  # half
    np.subtract(a, c, disc)
    np.square(disc, disc)
    np.square(b2, hi)
    np.add(disc, hi, disc)
    np.multiply(0.25, disc, disc)
    np.sqrt(disc, disc)
    np.add(lo, disc, hi)
    np.subtract(lo, disc, lo)
    return hi, lo, disc
