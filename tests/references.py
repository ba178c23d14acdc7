"""Whole-stack reference kernels that the library's strip kernels are
tested against bit for bit."""
import numpy as np

from mipdiff.diffusion import PMParams, _run, pm_diffusivity


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
