"""The filters commute with the grid's symmetries: for each transform T of
fliplr, flipud, transpose and rot90, max |f(T u) - T f(u)| stays within a
stated tolerance, on slice 16 of the seed-1234 phantom (64x64, one strip)
and on a 256x256 noise field (four strips, split over two threads where
the process may use two CPUs). The transformed fields are passed as the
views numpy returns, so transpose also feeds the filters a Fortran-ordered
field.

Each tolerance is set from the largest deviation measured over the four
transforms and both fields, written beside it: first the value the roadmap
measured (its own noise field), then the value measured on this module's
fields. The ``run_filter`` runs use tolerance 1e-300, so that no slice
stops early: ``AdaptiveParams`` refuses 0, and a relative change within
rounding of the stop rule's tolerance could end a transformed run one
iteration apart.
"""
import numpy as np
import pytest

from mipdiff.diffusion import (
    AdaptiveParams,
    HysteresisParams,
    PMParams,
    default_delta,
    hysteresis_filter,
    run_directional_ad,
    run_filter,
    run_orthogonal,
    run_pm,
)
from mipdiff.phantom import PhantomSpec, generate

TRANSFORMS = {"fliplr": np.fliplr, "flipud": np.flipud, "transpose": np.transpose,
              "rot90": np.rot90}


def pm(u):
    # default_delta takes the field's range, which no transform changes
    return PMParams(delta=default_delta(u))


def adaptive(mode):
    return AdaptiveParams(mode=mode, tolerance=1e-300)


# name: (filter, tolerance)
FILTERS = {
    # bit-identical | bit-identical
    "run_pm": (lambda u: run_pm(u, pm(u)), 0.0),
    # 2.2e-16 | 6.7e-16
    "run_orthogonal": (lambda u: run_orthogonal(u, pm(u)), 4e-15),
    # 6.2e-13 | 2.3e-13. With grad_threshold=inf the deviation is about as
    # large (1.0e-13 on both fields), so the percentile threshold is not its
    # cause. At dt = 0.25 the three summed terms grow noise (PMParams), and
    # each step amplifies the one-ulp differences of a transformed summation
    # order: on the noise field 2.2e-16 after one step, 6.2e-15 after five,
    # 2.3e-13 after ten; at dt = 0.1 ten steps stay within 4.4e-15.
    "run_directional_ad": (lambda u: run_directional_ad(u, pm(u)), 2e-12),
    # not measured | 1.0e-13
    "run_directional_ad, no switch": (lambda u: run_directional_ad(u, pm(u), np.inf), 2e-12),
    # 9.1e-15 | 3.3e-15
    "run_filter mip_min": (lambda u: run_filter(u, adaptive("mip_min"))[0], 5e-14),
    # 6.7e-16 | 8.9e-16
    "run_filter mip": (lambda u: run_filter(u, adaptive("mip"))[0], 5e-15),
    # not measured | 1.4e-14, the combination of two mip runs
    "hysteresis_filter": (
        lambda u: hysteresis_filter(u, adaptive("mip"), HysteresisParams())[0], 1e-13),
}


@pytest.fixture(scope="module")
def fields():
    return {
        "phantom slice 16": generate(PhantomSpec()).noisy[16],
        "256x256 noise": np.random.default_rng(7).normal(1.0, 0.1, (256, 256)),
    }


@pytest.mark.parametrize("field", ["phantom slice 16", "256x256 noise"])
@pytest.mark.parametrize("name", FILTERS)
def test_filter_commutes_with_grid_symmetries(fields, name, field):
    f, tolerance = FILTERS[name]
    u = fields[field]
    out = f(u)
    for tname, t in TRANSFORMS.items():
        deviation = float(np.max(np.abs(f(t(u)) - t(out))))
        assert deviation <= tolerance, f"{tname}: {deviation:.3g} > {tolerance:.3g}"
