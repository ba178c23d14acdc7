"""Scalar, orthogonal-split, and adaptive directional diffusion filters."""
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import references
from conftest import smooth_field
from mipdiff import diffusion
from mipdiff.diffusion import (
    MIP_MIN_NU,
    AdaptiveParams,
    BoundPair,
    HysteresisParams,
    PMParams,
    default_delta,
    directional_step,
    histogram_bounds,
    hysteresis_filter,
    pm_step,
    run_directional_ad,
    run_filter,
    run_orthogonal,
    run_pm,
)
from mipdiff.cli import main
from mipdiff.fields import _padded
from mipdiff.fileio import read_volume, write_volume
from mipdiff.metrics import psnr_vs_input
from references import (
    adaptive_mu,
    curvature_terms,
    derivatives,
    pm_diffusivity,
    pm_flux_second_derivative,
    structureness,
)


def adaptive_mu_update(u, params, nu=0.0):
    """sum((nu_i + mu_i) * d_i) over the whole slice, with d_i from the
    reference ``derivatives``/``curvature_terms`` and mu_i from
    ``adaptive_mu``; nu weights eta and e2 only, and mip mode has no e1
    term. Summed in the filter kernel's order, and nu + (-t) is nu - t
    exactly, so the result matches the kernel bit for bit, signed zeros
    included."""
    d_eta, d_e1, d_e2, c = curvature_terms(derivatives(u))
    dirs = [d_eta, d_e2] if params.mode == "mip" else [d_eta, d_e2, d_e1]
    gates = [None] * len(dirs)
    if params.mode == "mip" and u.size >= 100:
        gates = [histogram_bounds(d, params.tail_prob) for d in dirs]
    terms = [
        (n + adaptive_mu(c, d, params.alpha, params.mode, b)) * d
        for n, d, b in zip((nu, nu, 0.0), dirs, gates)
    ]
    return sum(terms[1:], terms[0])


def adaptive_mu_step(u, params, nu=0.0):
    """u + step * adaptive_mu_update(u, params, nu)."""
    return u + params.step * adaptive_mu_update(u, params, nu)


def padded_norm(x):
    """The L2 norm that the run loop takes of a slice: one np.einsum over
    the slice as the interior of a padded buffer, rows nx + 2 apart, whose
    layout sets the order of the sum."""
    p = np.zeros((x.shape[0] + 2, x.shape[1] + 2))
    p[1:-1, 1:-1] = x
    return math.sqrt(np.einsum("ij,ij->", p[1:-1, 1:-1], p[1:-1, 1:-1]))


def whole_slice_run(u, params):
    """run_filter's loop on whole slices: (out, relative_changes, basis_sum)."""
    nu = MIP_MIN_NU if params.mode == "mip_min" else 0.0
    changes, update = [], np.zeros_like(u)
    for _ in range(params.max_iterations):
        if params.alpha == 0:
            update, u_next = np.zeros_like(u), u.copy()
        else:
            update = adaptive_mu_update(u, params, nu=nu)
            u_next = u + params.step * update
        diff = padded_norm(u_next - u)
        base = padded_norm(u)
        rel = 0.0 if diff == 0.0 else (math.inf if base == 0.0 else diff / base)
        changes.append(rel)
        u = u_next
        if rel < params.tolerance:
            break
    return u, changes, update


def squared_gradient(b):
    return b.ux * b.ux + b.uy * b.uy


def whole_slice_orthogonal(u, params):
    """run_orthogonal's steps on whole slices, from the reference derivatives,
    curvature_terms and PM weights: u + dt * (g * D_o + f'' * D_p)."""
    for _ in range(params.iterations):
        b = derivatives(u)
        d_par = curvature_terms(b)[0]
        g2 = squared_gradient(b)
        s = np.sqrt(g2)
        d_ortho = np.where(g2 > 0.0, b.uxx + b.uyy - d_par, 0.0)
        update = (pm_diffusivity(s, params) * d_ortho
                  + pm_flux_second_derivative(s, params) * d_par)
        u = u + params.dt * update
    return u


def whole_slice_directional_ad(u, params, grad_threshold=None):
    """run_directional_ad's steps on whole slices, from the reference
    derivatives, curvature_terms and pm_diffusivity, the e1 term switched
    off where |grad u| exceeds the threshold (the input's 90th percentile
    when None)."""
    if grad_threshold is None:
        grad_threshold = float(np.quantile(np.sqrt(squared_gradient(derivatives(u))), 0.9))
    for _ in range(params.iterations):
        b = derivatives(u)
        d_eta, d_e1, d_e2, _ = curvature_terms(b)
        s = np.sqrt(squared_gradient(b))
        g = pm_diffusivity(s, params)
        g_e1 = np.where(s > grad_threshold, 0.0, g)
        u = u + params.dt * (g * d_eta + g_e1 * d_e1 + g * d_e2)
    return u


# field shapes of the run-loop tests: the smallest field, a strip one and
# three rows high, the study's slice size, and a wide, odd-sized one
RUN_SHAPES = [(3, 3), (3, 40), (64, 64), (37, 300)]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestParams:
    def test_pm_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            PMParams(delta=1.0, dt=0.3)
        with pytest.raises(ValueError, match="dt"):
            PMParams(delta=1.0, dt=0.0)

    def test_pm_rejects_bad_delta(self):
        # the weights divide by delta^2, so a square that underflows to 0
        # is refused too; 1e-150 squares to 1e-300, a normal float
        for delta in (0.0, 1e-170, 5e-324):
            with pytest.raises(ValueError, match="delta"):
                PMParams(delta=delta)
        PMParams(delta=1e-150)

    def test_pm_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            PMParams(delta=1.0, diffusivity_kind="gauss")

    def test_adaptive_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            AdaptiveParams(alpha=-1.0)

    def test_adaptive_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            AdaptiveParams(mode="both")

    def test_gains_and_steps_must_be_finite(self):
        for field in ("alpha", "step"):
            with pytest.raises(ValueError, match=field):
                AdaptiveParams(**{field: math.inf})
        with pytest.raises(ValueError, match="alpha_high"):
            HysteresisParams(alpha_high=math.inf)
        with pytest.raises(ValueError, match="alpha_low"):
            HysteresisParams(alpha_low=math.inf, alpha_high=math.inf)
        # infinite tolerances and thresholds give finite output, so they stay
        AdaptiveParams(tolerance=math.inf)
        HysteresisParams(c_threshold=math.inf)

    def test_bound_pair_ordering(self):
        with pytest.raises(ValueError):
            BoundPair(2.0, 1.0)

    def test_hysteresis_needs_increasing_alphas(self):
        with pytest.raises(ValueError):
            HysteresisParams(alpha_low=4.0, alpha_high=4.0)

    def test_default_delta(self):
        assert default_delta(np.zeros((3, 3))) == 1.0
        assert default_delta(np.array([[0.0, 5.0], [0.0, 0.0]])) == 0.5


class TestPmDiffusivity:
    def test_zero_gradient_is_one(self):
        for kind in ("rational", "exponential"):
            p = PMParams(delta=2.0, diffusivity_kind=kind)
            assert pm_diffusivity(0.0, p) == 1.0

    def test_at_delta_rational_is_half(self):
        p = PMParams(delta=3.7)
        assert pm_diffusivity(3.7, p) == 0.5

    def test_at_delta_exponential_is_inv_e(self):
        p = PMParams(delta=0.42, diffusivity_kind="exponential")
        assert abs(pm_diffusivity(0.42, p) - math.exp(-1.0)) < 1e-15

    def test_monotone_decreasing(self):
        s = np.linspace(0.0, 10.0, 200)
        for kind in ("rational", "exponential"):
            g = pm_diffusivity(s, PMParams(delta=1.5, diffusivity_kind=kind))
            assert np.all(np.diff(g) < 0)

    def test_flux_derivative_matches_numerical(self):
        # the closed form is the slope of the flux s*g(s), checked against a
        # central difference of the flux itself
        for kind in ("rational", "exponential"):
            p = PMParams(delta=1.3, diffusivity_kind=kind)
            h = 1e-6
            for s in (0.2, 0.9, 1.3, 2.8):
                flux = lambda t: t * pm_diffusivity(t, p)
                numeric = (flux(s + h) - flux(s - h)) / (2.0 * h)
                assert abs(pm_flux_second_derivative(s, p) - numeric) < 1e-8

    def test_flux_derivative_sign_change_at_delta(self):
        p = PMParams(delta=2.0)
        assert pm_flux_second_derivative(1.9, p) > 0
        assert pm_flux_second_derivative(2.1, p) < 0
        pe = PMParams(delta=2.0, diffusivity_kind="exponential")
        crossover = 2.0 / math.sqrt(2.0)
        assert pm_flux_second_derivative(crossover - 0.05, pe) > 0
        assert pm_flux_second_derivative(crossover + 0.05, pe) < 0

    @pytest.mark.parametrize("kind", ["rational", "exponential"])
    def test_weights_finite_is_the_overflow_bound(self, kind):
        # across both bounds (delta about 2.6e-78 and 3.2e-155 for a span
        # of 0.3): the weights of every s <= span overflow nowhere exactly
        # when _weights_finite holds
        s = np.linspace(0.0, 0.3, 101)
        verdicts = set()
        for delta in np.geomspace(1e-160, 1e-60, 401):
            p = PMParams(delta=float(delta), diffusivity_kind=kind)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    diffusion._pm_weights(s, p)
                finite = True
            except FloatingPointError:
                finite = False
            assert diffusion._weights_finite(p, 0.3) == finite
            verdicts.add(finite)
        assert verdicts == {True, False}


class TestPmStep:
    def test_constant_fixed_point_bitwise(self):
        u = np.full((8, 9), 3.25)
        out = pm_step(u, PMParams(delta=1.0))
        np.testing.assert_array_equal(out, u)

    def test_bright_pixel_spreads(self):
        u = np.zeros((7, 7))
        u[3, 3] = 1.0
        out = pm_step(u, PMParams(delta=10.0, dt=0.25))
        assert out[3, 3] < 1.0
        for y, x in ((2, 3), (4, 3), (3, 2), (3, 4)):
            assert out[y, x] > 0.0
        assert out[2, 2] == 0.0  # diagonals receive no flux in one step

    def test_sum_conserved(self, rng):
        u = rng.normal(0.0, 1.0, (16, 16))
        p = PMParams(delta=0.5, iterations=25)
        out = run_pm(u, p)
        assert abs(out.sum() - u.sum()) <= 1e-8 * abs(u.sum())

    def test_matches_scalar_oracle(self, rng):
        for kind in ("rational", "exponential"):
            for _ in range(15):
                ny, nx = rng.integers(3, 17, size=2)
                u = rng.normal(0.0, 1.0, (ny, nx))
                p = PMParams(delta=0.7, dt=0.2, diffusivity_kind=kind)
                got = pm_step(u, p)
                want = oracles.pm_step(oracles.grid(u), 0.7, 0.2, kind)
                np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conservation_property(self, seed):
        u = np.random.default_rng(seed).uniform(-2.0, 2.0, (9, 9))
        out = pm_step(u, PMParams(delta=1.0))
        assert abs(out.sum() - u.sum()) <= 1e-8 * max(abs(u.sum()), 1.0)

    def test_extrema_not_amplified(self, rng):
        u = rng.uniform(0.0, 1.0, (12, 12))
        out = pm_step(u, PMParams(delta=0.5))
        assert out.max() <= u.max() + 1e-12
        assert out.min() >= u.min() - 1e-12

    @pytest.mark.parametrize("kind", ["rational", "exponential"])
    @pytest.mark.parametrize("integer", [False, True], ids=["normal", "integer"])
    def test_matches_whole_stack_reference(self, rng, kind, integer):
        # the strip kernel against the whole-stack reference kernel, bit for
        # bit; integer-valued fields hold exact-zero differences, on which
        # g(0) * 0 must give the +0 of a border face
        def field(shape):
            if integer:
                return rng.integers(0, 4, shape).astype(np.float64)
            return rng.normal(1.0, 0.1, shape)

        p = PMParams(delta=1.0 if integer else 0.05, iterations=4, diffusivity_kind=kind)
        once = replace(p, iterations=1)
        for shape in RUN_SHAPES + [(1, 1), (1, 7), (7, 1), (2, 2)]:
            u = field(shape)
            assert_same_bits(run_pm(u, p), references.pm_stack(u[None], p)[0])
            assert_same_bits(pm_step(u, p), references.pm_stack(u[None], once)[0])
        for shape in [(64, 64), (24, 40)]:
            for k in (1, 2, 3, 9):
                stack = np.stack([field(shape) for _ in range(k)])
                assert_same_bits(diffusion._pm_stack(stack, p), references.pm_stack(stack, p))

    def test_run_pm_iterates(self, rng):
        # the run's strip workspace gives the bits of the public steps, also
        # on fields too small for the derivative stencils
        for shape in RUN_SHAPES + [(1, 1), (1, 7), (7, 1), (2, 2)]:
            u = rng.normal(1.0, 0.1, shape)
            for kind in ("rational", "exponential"):
                p = PMParams(delta=0.05, iterations=4, diffusivity_kind=kind)
                manual = u
                for _ in range(p.iterations):
                    manual = pm_step(manual, p)
                assert_same_bits(run_pm(u, p), manual)


class TestOrthogonalStep:
    def test_constant_fixed_point(self):
        u = np.full((6, 6), 2.0)
        np.testing.assert_array_equal(run_orthogonal(u, PMParams(delta=1.0, iterations=1)), u)

    def test_linear_ramp_interior_unchanged(self):
        u = np.tile(np.arange(8.0), (8, 1))
        out = run_orthogonal(u, PMParams(delta=5.0, iterations=1))
        np.testing.assert_array_equal(out[1:-1, 1:-1], u[1:-1, 1:-1])

    def test_split_matches_divergence_form(self, rng):
        # lam1*D_o + lam2*D_p reproduces div(g grad u) up to the differing
        # discretizations of the two schemes
        worst = 0.0
        for _ in range(10):
            u = smooth_field(rng, (9, 9), passes=4)
            p = PMParams(delta=default_delta(u), dt=0.2, iterations=1)
            split = run_orthogonal(u, p) - u
            divform = pm_step(u, p) - u
            rms = float(np.sqrt(np.mean((split - divform) ** 2)))
            worst = max(worst, rms / (u.max() - u.min()))
        assert worst < 5e-2

    def test_run_orthogonal_iterates(self, rng):
        # the run's one padded buffer gives the bits of fresh one-iteration runs
        for shape in [(10, 10)] + RUN_SHAPES:
            u = rng.normal(1.0, 0.1, shape)
            for kind in ("rational", "exponential"):
                p = PMParams(delta=0.05, iterations=4, diffusivity_kind=kind)
                manual = u
                for _ in range(p.iterations):
                    manual = run_orthogonal(manual, replace(p, iterations=1))
                assert_same_bits(run_orthogonal(u, p), manual)


class TestHistogramBounds:
    def test_uniform_rank_example(self):
        values = np.arange(1.0, 1001.0)
        b = histogram_bounds(values, tail_prob=0.05)
        assert b.ue_min == 25.0
        assert b.ue_max == 975.0

    def test_constant_degenerates(self):
        b = histogram_bounds(np.full(256, 3.5), tail_prob=0.05)
        assert b.ue_min == b.ue_max == 3.5

    def test_symmetric_values_mirror(self):
        # paired +-v with a rank that does not land on an integer boundary
        v = np.arange(1.0, 102.0)
        values = np.concatenate([v, -v])
        b = histogram_bounds(values, tail_prob=0.05)
        assert b.ue_min == -b.ue_max

    def test_needs_100_values(self):
        with pytest.raises(ValueError, match="100"):
            histogram_bounds(np.arange(99.0))

    def test_matches_rank_oracle(self, rng):
        maps = []
        for _ in range(20):
            n = int(rng.integers(100, 400))
            maps += [
                rng.normal(0.0, 1.0, n),
                rng.integers(-3, 4, n).astype(np.float64),  # heavy ties
                np.full(n, float(rng.normal())),
            ]
        maps += [rng.normal(0.0, 1.0, 100), rng.integers(0, 2, 100).astype(np.float64)]
        for values in maps:
            # a random tail, and the extremes: at n = 100, ranks 1 and n, 25 and 76
            for tail in (float(rng.uniform(0.01, 0.4)), 1e-3, 0.499):
                b = histogram_bounds(values, tail)
                lo, hi = oracles.tail_bounds([float(v) for v in values], tail)
                assert b.ue_min == lo and b.ue_max == hi

    @given(st.integers(0, 2**32 - 1), st.floats(0.02, 0.45))
    @settings(max_examples=30, deadline=None)
    def test_tail_mass_property(self, seed, tail):
        values = np.random.default_rng(seed).normal(0.0, 1.0, 250)
        b = histogram_bounds(values, tail)
        n = values.size
        assert (values < b.ue_min).sum() <= tail / 2.0 * n
        assert (values > b.ue_max).sum() <= tail / 2.0 * n

    @given(st.integers(0, 2**32 - 1), st.integers(100, 700), st.sampled_from([None, 1, 3, 50]),
           st.floats(0.001, 0.499))
    @settings(max_examples=60, deadline=None)
    def test_in_place_selection_matches(self, seed, n, levels, tail):
        # mip mode takes d_e2's bounds in place in the iterate buffer, d_eta's
        # in histogram_bounds's copy: the same pair, with ties (a few levels)
        # and on constant maps (one level)
        rng = np.random.default_rng(seed)
        if levels is None:
            values = rng.normal(0.0, 1.0, n)
        else:
            values = rng.integers(0, levels, n) * rng.normal(0.0, 1.0)
        want = histogram_bounds(values, tail)
        got = diffusion._select_bounds(values.copy(), tail)
        assert got == want


class TestAdaptiveMu:
    def test_zero_derivative_is_zero(self):
        assert adaptive_mu(1.0, 0.0, alpha=4.0, mode="mip_min") == 0.0
        assert adaptive_mu(1.0, 0.0, alpha=4.0, mode="mip") == 0.0

    def test_unit_product_mip_min(self):
        # alpha*c*d = 1 -> mu = -tanh(1/2)
        got = adaptive_mu(1.0, 1.0, alpha=1.0, mode="mip_min")
        assert abs(got - (-math.tanh(0.5))) < 1e-15
        assert abs(got + 0.46211715726000974) < 1e-12

    def test_mip_gating_outside_bounds(self):
        b = BoundPair(-1.0, 1.0)
        assert adaptive_mu(1.0, 5.0, alpha=2.0, mode="mip", bounds=b) == 0.0
        assert adaptive_mu(1.0, 0.5, alpha=2.0, mode="mip", bounds=b) > 0.0

    def test_gating_interval_is_open(self):
        b = BoundPair(-1.0, 1.0)
        assert adaptive_mu(1.0, 1.0, alpha=2.0, mode="mip", bounds=b) == 0.0
        assert adaptive_mu(1.0, -1.0, alpha=2.0, mode="mip", bounds=b) == 0.0

    @given(st.floats(0.0, 20.0), st.floats(0.0, 5.0), st.floats(-5.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_odd_and_bounded(self, alpha, c, d):
        lo = adaptive_mu(c, d, alpha, "mip_min")
        hi = adaptive_mu(c, -d, alpha, "mip_min")
        assert lo == -hi  # odd in d_e
        assert abs(lo) <= 1.0
        assert adaptive_mu(c, d, alpha, "mip") == -lo

    def test_mip_min_opposes_curvature(self):
        # positive d (a dip) gets a negative weight, and vice versa
        assert adaptive_mu(2.0, 0.7, alpha=3.0, mode="mip_min") < 0
        assert adaptive_mu(2.0, -0.7, alpha=3.0, mode="mip_min") > 0


class TestDirectionalStep:
    def test_alpha_zero_identity_bitwise(self, rng):
        u = rng.normal(0.0, 1.0, (12, 12))
        out = directional_step(u, AdaptiveParams(alpha=0.0))
        np.testing.assert_array_equal(out, u)
        assert out is not u

    def test_constant_fixed_point(self):
        u = np.full((9, 9), 4.0)
        out = directional_step(u, AdaptiveParams(alpha=6.0, mode="mip_min"))
        np.testing.assert_array_equal(out, u)

    def test_gaussian_dip_deepens(self):
        # dark 1-D tube profile on a flat baseline: the centre is a minimum
        # with positive curvature, so mip_min pushes it further down
        x = np.arange(33.0)
        profile = 1.0 - 0.2 * np.exp(-((x - 16.0) ** 2) / (2.0 * 2.0**2))
        u = np.tile(profile, (33, 1))
        out = directional_step(u, AdaptiveParams(alpha=5.0, step=0.2, mode="mip_min"))
        assert out[16, 16] < u[16, 16]

    def test_mip_min_update_is_non_positive(self, rng):
        u = smooth_field(rng, (16, 16), offset=1.0, scale=0.1)
        out = directional_step(u, AdaptiveParams(alpha=6.0, mode="mip_min"))
        assert np.all(out <= u)

    def test_mip_update_is_non_negative(self, rng):
        u = smooth_field(rng, (16, 16), offset=1.0, scale=0.1)
        out = directional_step(u, AdaptiveParams(alpha=6.0, mode="mip"))
        assert np.all(out >= u)

    @pytest.mark.parametrize(
        "mode, shape",
        [
            ("mip_min", (16, 16)),
            ("mip", (16, 16)),  # histogram-derived bounds
            ("mip", (8, 8)),  # under 100 pixels: ungated
        ],
        ids=["mip_min", "mip_auto_bounds", "mip_ungated"],
    )
    def test_is_the_adaptive_mu_sum(self, rng, mode, shape):
        u = rng.normal(1.0, 0.2, shape)
        params = AdaptiveParams(alpha=4.0, step=0.15, mode=mode)
        got = directional_step(u, params)
        np.testing.assert_array_equal(got, adaptive_mu_step(u, params))

    def test_matches_scalar_oracle_mip_min(self, rng):
        for _ in range(10):
            u = rng.normal(1.0, 0.2, (int(rng.integers(5, 17)), int(rng.integers(5, 17))))
            params = AdaptiveParams(alpha=4.0, step=0.15, mode="mip_min")
            got = directional_step(u, params)
            want = oracles.directional_step(oracles.grid(u), 4.0, "mip_min", 0.15)
            np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)

    def test_matches_scalar_oracle_mip_auto_bounds(self, rng):
        # 16x16 = 256 pixels, large enough for histogram-derived bounds
        for _ in range(10):
            u = rng.normal(1.0, 0.2, (16, 16))
            params = AdaptiveParams(alpha=4.0, step=0.15, mode="mip", tail_prob=0.08)
            got = directional_step(u, params)
            want = oracles.directional_step(
                oracles.grid(u), 4.0, "mip", 0.15, tail_prob=0.08
            )
            np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)

    def test_small_mip_field_runs_ungated(self):
        # below 100 pixels there is no histogram to trust; weights are
        # applied without bounds
        u = np.ones((6, 6))
        u[3, 3] = 1.2
        out = directional_step(u, AdaptiveParams(alpha=4.0, mode="mip"))
        assert out.shape == (6, 6)


class TestRunFilter:
    def test_constant_converges_immediately(self):
        u = np.full((8, 8), 2.0)
        out, trace = run_filter(u, AdaptiveParams(alpha=5.0, mode="mip_min"))
        np.testing.assert_array_equal(out, u)
        assert trace.iterations == 1
        assert trace.relative_changes == [0.0]
        assert trace.converged

    def test_alpha_zero_identity(self, rng):
        u = rng.normal(0.0, 1.0, (10, 10))
        out, trace = run_filter(u, AdaptiveParams(alpha=0.0))
        np.testing.assert_array_equal(out, u)
        assert trace.iterations == 1
        assert trace.converged

    def test_trace_is_finite_and_terminates(self, rng):
        u = smooth_field(rng, (32, 32), offset=1.0, scale=0.05)
        params = AdaptiveParams(alpha=2.0, mode="mip_min", max_iterations=40)
        _, trace = run_filter(u, params)
        assert all(math.isfinite(r) for r in trace.relative_changes)
        assert trace.iterations <= 40
        if trace.converged:
            assert trace.relative_changes[-1] < params.tolerance
        else:
            assert trace.iterations == 40

    def test_trace_csv_format(self, rng, tmp_path):
        # filter --trace writes the trace's relative changes, each one
        # printed in the fewest digits that read back to the same float
        src, out = tmp_path / "in.vol", tmp_path / "o.vol"
        write_volume(smooth_field(rng, (10, 10), offset=1.0, scale=0.1), src)
        assert main([
            "filter", "--input", str(src), "--output", str(out),
            "--alpha", "2.0", "--max-iterations", "3", "--trace",
        ]) == 0
        _, trace = run_filter(read_volume(src)[0], AdaptiveParams(alpha=2.0, max_iterations=3))
        lines = (tmp_path / "o_trace_s0.csv").read_text().splitlines()
        assert lines[0] == "iteration,relative_change"
        assert len(lines) == trace.iterations + 1
        for i, (line, r) in enumerate(zip(lines[1:], trace.relative_changes), start=1):
            k, value = line.split(",")
            assert int(k) == i
            assert float(value) == r

    def test_single_iteration_reconstruction(self, rng):
        # out = in + step * basis_sum holds exactly for a one-iteration run
        u = smooth_field(rng, (12, 12), offset=1.0, scale=0.1)
        params = AdaptiveParams(alpha=3.0, step=0.2, mode="mip_min", max_iterations=1)
        out, trace = run_filter(u, params)
        np.testing.assert_array_equal(out, u + params.step * trace.basis_sum)

    def test_mip_min_iteration_matches_scalar_oracle(self, rng):
        for alpha in (0.5, 2.0, 4.0):
            u = rng.normal(1.0, 0.2, (int(rng.integers(5, 17)), int(rng.integers(5, 17))))
            params = AdaptiveParams(alpha=alpha, step=0.15, mode="mip_min", max_iterations=1)
            got, _ = run_filter(u, params)
            want = oracles.mip_min_iteration(oracles.grid(u), alpha, 0.15, MIP_MIN_NU)
            np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)

    def test_mip_min_iteration_is_the_adaptive_mu_sum(self, rng):
        # nu + (-t) equals nu - t exactly, so the fused update matches bit for bit
        u = rng.normal(1.0, 0.2, (16, 16))
        params = AdaptiveParams(alpha=4.0, step=0.15, mode="mip_min", max_iterations=1)
        out, _ = run_filter(u, params)
        np.testing.assert_array_equal(out, adaptive_mu_step(u, params, nu=MIP_MIN_NU))

    def test_mip_min_defaults_smooth_flat_noise(self, rng):
        # the sharpening term alone only lowers pixels, so noise dips deepen;
        # the forward diffusion must fill them in and shrink the spread
        u = rng.normal(1.0, 0.05, (32, 32))
        out, _ = run_filter(u, AdaptiveParams())
        assert out.std() < 0.5 * u.std()
        assert out.min() > u.min()
        assert out.max() < u.max()

    def test_mip_iteration_is_the_directional_step(self, rng):
        u = rng.normal(1.0, 0.2, (16, 16))
        params = AdaptiveParams(alpha=4.0, step=0.15, mode="mip", max_iterations=1)
        out, _ = run_filter(u, params)
        np.testing.assert_array_equal(out, directional_step(u, params))

    @pytest.mark.parametrize("shape", [(64, 64), (300, 64)], ids=["one strip", "two strips"])
    def test_fortran_ordered_input(self, rng, shape):
        # the workspace's iterate and update take one layout, C order,
        # whatever the input's: a Fortran-ordered iterate was copied by
        # every flat view of it and written in strided rows, 2.4x the time
        # at 512x512 in mip mode, for the same bits
        u = rng.normal(1.0, 0.1, shape)
        f = np.asfortranarray(u)
        for mode in ("mip_min", "mip"):
            params = AdaptiveParams(alpha=2.0, mode=mode, max_iterations=3)
            want, want_trace = run_filter(u, params)
            got, trace = run_filter(f, params)
            assert_same_bits(got, want)
            assert trace.relative_changes == want_trace.relative_changes
            assert_same_bits(trace.basis_sum, want_trace.basis_sum)
        ws = diffusion._Workspace(f[None])
        assert ws.it.flags.c_contiguous and ws.update.flags.c_contiguous


# Strip heights at _STRIP_PIXELS = 16384: 256 rows at width 64 (300 = 256
# + 44), 163 at width 100 (250 = 163 + 87), one row above 16384 pixels at
# 8300 columns (three strips and seven).
STRIP_SHAPES = {
    "300x64": (300, 64),
    "250x100": (250, 100),
    "3x40": (3, 40),
    "3x8300": (3, 8300),
    "7x8300": (7, 8300),
}


class TestStripBlocking:
    """The strip-blocked kernel equals a whole-slice evaluation from the
    reference derivatives and curvature_terms, bit for bit."""

    @staticmethod
    def check(u, params):
        out, trace = run_filter(u, params)
        want_out, want_changes, want_basis = whole_slice_run(u, params)
        assert_same_bits(out, want_out)
        assert trace.relative_changes == want_changes
        assert_same_bits(trace.basis_sum, want_basis)
        want_step = u.copy() if params.alpha == 0 else adaptive_mu_step(u, params)
        assert_same_bits(directional_step(u, params), want_step)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("mode", ["mip_min", "mip"])
    @pytest.mark.parametrize("shape", STRIP_SHAPES.values(), ids=STRIP_SHAPES.keys())
    def test_matches_whole_slice(self, rng, shape, mode, alpha):
        u = rng.normal(1.0, 0.1, shape)
        self.check(u, AdaptiveParams(alpha=alpha, mode=mode, max_iterations=3))

    @pytest.mark.parametrize("strip_pixels", [1, 20, 33, 70])
    def test_matches_whole_slice_at_any_strip_height(self, monkeypatch, rng, strip_pixels):
        # width 16: strips of 1, 1, 2 and 4 rows over 11 rows
        monkeypatch.setattr(diffusion, "_STRIP_PIXELS", strip_pixels)
        u = rng.normal(1.0, 0.1, (11, 16))
        for mode in ("mip_min", "mip"):
            self.check(u, AdaptiveParams(alpha=2.0, mode=mode, max_iterations=3))

    @pytest.mark.parametrize("mode", ["mip_min", "mip"])
    @pytest.mark.parametrize("shape", [STRIP_SHAPES["300x64"], STRIP_SHAPES["250x100"]],
                             ids=["300x64", "250x100"])
    def test_zero_gradient_pixels(self, rng, shape, mode):
        # on an integer-valued field about one pixel in fifteen has
        # ux = uy = 0 under a non-zero Hessian: the masked divide must give
        # d_eta = 0 there, not a value its buffer kept from an earlier strip
        u = rng.integers(0, 4, shape).astype(float)
        b = derivatives(u)
        flat = (b.ux == 0.0) & (b.uy == 0.0) & ((b.uxx != 0.0) | (b.uyy != 0.0))
        assert flat.mean() > 0.05
        self.check(u, AdaptiveParams(alpha=2.0, mode=mode, max_iterations=3))

    @pytest.mark.parametrize("stale", [np.nan, -7.0])
    def test_strip_buffers_keep_no_stale_value(self, monkeypatch, rng, stale):
        # each strip's curvature terms equal curvature_terms' bit for bit,
        # +0 of zero-gradient pixels included, whatever the buffers held
        monkeypatch.setattr(diffusion, "_STRIP_PIXELS", 500)  # 10-row strips
        u = rng.integers(0, 4, (40, 50)).astype(float)
        b = derivatives(u)
        want = curvature_terms(b)
        flat = (b.ux == 0.0) & (b.uy == 0.0)
        assert (flat & (b.uxy < 0.0)).any()  # where ux * uy * uxy is -0
        np.testing.assert_array_equal(np.signbit(want[0][flat]), False)
        ws = diffusion._Workspace(u)
        _padded(u, ws.q)
        for _, bufs, _ in ws.strips[:2]:  # both buffer sets, where there are two
            for buf in bufs[:8]:
                buf.fill(stale)
        for nb, buf, ((s, _),) in ws.strips:
            got = diffusion._curvature_strip(nb, buf)
            for g, w in zip(got, want):
                assert_same_bits(g[:, 1:-1].copy(), w[s])

    @pytest.mark.parametrize("mode, slices", [("mip_min", 7), ("mip", 9.5)])
    def test_kernel_memory(self, rng, mode, slices):
        # the loop's one iterate, the padded field, the update, the two
        # strip buffer sets less what the iterate holds of the worker's,
        # and the step's strided buffers trace about 6.6 slices (6.1 with
        # three loop slices and one 8192-pixel set; a kernel allocating
        # every strip temporary afresh traced 7.5). mip mode adds its d_e2
        # and k maps, 8.4 slices through its gate-and-sum pass, which runs
        # in the strip buffers, and peaks at 9.4 while histogram_bounds
        # holds its copy of a slice's d_eta
        u = rng.normal(1.0, 0.1, (256, 256))
        tracemalloc.start()
        try:
            run_filter(u, AdaptiveParams(mode=mode))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= slices * u.nbytes

    def test_ungated_mip_below_100_pixels(self, monkeypatch, rng):
        monkeypatch.setattr(diffusion, "_STRIP_PIXELS", 20)  # 2-row strips
        u = rng.normal(1.0, 0.1, (9, 10))
        self.check(u, AdaptiveParams(alpha=2.0, mode="mip", max_iterations=3))

    def test_oracles_on_field_taller_than_one_strip(self, monkeypatch, rng):
        # width 700: strips of 11 and 6 rows
        monkeypatch.setattr(diffusion, "_STRIP_PIXELS", 8192)
        u = rng.normal(1.0, 0.2, (17, 700))
        g = oracles.grid(u)
        params = AdaptiveParams(alpha=2.0, step=0.15, mode="mip_min", max_iterations=1)
        got, _ = run_filter(u, params)
        want = oracles.mip_min_iteration(g, 2.0, 0.15, MIP_MIN_NU)
        np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)
        got = directional_step(u, AdaptiveParams(alpha=2.0, step=0.15, mode="mip"))
        want = oracles.directional_step(g, 2.0, "mip", 0.15)
        np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)


class TestHysteresis:
    """hysteresis_filter against its two run_filter passes and the
    whole-slice structureness of the reference run, at any strip height."""

    PARAMS = AdaptiveParams(mode="mip", max_iterations=3)

    # widths 16 and 24: one strip; strips of 7, 7, 2 and of 5, 5, 5, 5, 4
    # rows; strips of 15, 1 and of 10, 10, 4 rows
    @pytest.fixture(autouse=True, params=[8192, 120, 250])
    def strip_pixels(self, request, monkeypatch):
        monkeypatch.setattr(diffusion, "_STRIP_PIXELS", request.param)

    @classmethod
    def runs(cls, u, c_threshold):
        """hysteresis_filter's (combined, low, high), the two runs checked
        against run_filter, and the structureness of the run that changed
        the input less; combined is checked against the selection by that
        structureness, bit for bit."""
        hparams = HysteresisParams(c_threshold=c_threshold)
        combined, low, high = hysteresis_filter(u, cls.PARAMS, hparams)
        for out, alpha in ((low, hparams.alpha_low), (high, hparams.alpha_high)):
            assert_same_bits(out, run_filter(u, replace(cls.PARAMS, alpha=alpha))[0])
        ref = low if psnr_vs_input(u, low) >= psnr_vs_input(u, high) else high
        c_ref = structureness(derivatives(ref))
        threshold = float(np.quantile(c_ref, 0.9)) if c_threshold is None else c_threshold
        assert_same_bits(combined, np.where(c_ref > threshold, high, low))
        return combined, low, high, c_ref

    def test_default_threshold_is_90th_percentile(self, rng):
        u = rng.normal(1.0, 0.1, (16, 16))
        combined, low, high, _ = self.runs(u, None)
        assert np.any(combined != low) and np.any(combined != high)

    @pytest.mark.parametrize("shape", STRIP_SHAPES.values(), ids=STRIP_SHAPES.keys())
    def test_strip_structureness_matches_whole_slice(self, rng, shape):
        u = rng.normal(1.0, 0.1, shape)
        got = diffusion._sweep(diffusion._Workspace(u), u,
                               lambda nb, buf: diffusion._curvature_strip(nb, buf)[3])
        assert_same_bits(got, structureness(derivatives(u)))

    def test_infinite_threshold_selects_low(self, rng):
        u = rng.normal(1.0, 0.1, (16, 16))
        combined, low, _, _ = self.runs(u, math.inf)
        assert_same_bits(combined, low)

    def test_zero_threshold_selects_high(self, rng):
        u = rng.normal(1.0, 0.1, (16, 16))
        combined, _, high, c_ref = self.runs(u, 0.0)
        assert np.all(c_ref > 0.0)
        assert_same_bits(combined, high)

    def test_checkerboard_selection_matches_mask(self, rng):
        # the high run where c_ref > threshold, pixel by pixel; the
        # comparison is strict, so a pixel at the threshold takes the low run
        u = rng.normal(1.0, 0.1, (16, 16))
        c_ref = self.runs(u, math.inf)[3]
        at = np.unravel_index(np.argsort(c_ref, axis=None)[128], c_ref.shape)
        combined, low, high, _ = self.runs(u, float(c_ref[at]))
        mask = c_ref > c_ref[at]
        assert 0 < mask.sum() < mask.size and not mask[at]
        assert_same_bits(combined, np.where(mask, high, low))
        assert combined[at] == low[at] != high[at]

    def test_filter_returns_pixelwise_choice(self, rng):
        u = smooth_field(rng, (24, 24), offset=1.0, scale=0.08)
        params = AdaptiveParams(mode="mip", max_iterations=5)
        combined, low, high = hysteresis_filter(
            u, params, HysteresisParams(alpha_low=1.0, alpha_high=4.0)
        )
        matches = (combined == low) | (combined == high)
        assert np.all(matches)


class TestDirectionalAd:
    def test_constant_fixed_point(self):
        u = np.full((7, 7), 1.5)
        out = run_directional_ad(u, PMParams(delta=1.0, iterations=1), grad_threshold=0.5)
        np.testing.assert_array_equal(out, u)

    def test_e1_term_suppressed_across_edges(self):
        # a hard step edge: pixels with gradient above the switch see only
        # the eta and e2 terms
        u = np.zeros((9, 9))
        u[:, 5:] = 1.0
        p = PMParams(delta=0.2, iterations=1)
        full = run_directional_ad(u, p, grad_threshold=math.inf)
        cut = run_directional_ad(u, p, grad_threshold=0.25)
        assert not np.array_equal(full, cut)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="grad_threshold"):
            run_directional_ad(np.ones((5, 5)), PMParams(delta=1.0), math.nan)

    def test_default_threshold_is_90th_percentile(self, rng):
        u = smooth_field(rng, (14, 14))
        b = derivatives(u)
        gnorm = np.sqrt(b.ux**2 + b.uy**2)
        expected = float(np.quantile(gnorm, 0.9))
        p = PMParams(delta=1.0, iterations=2)
        np.testing.assert_array_equal(
            run_directional_ad(u, p), run_directional_ad(u, p, expected)
        )

    def test_threshold_fixed_across_iterations(self, rng):
        # the default threshold is the input's, kept for every iteration:
        # the run gives the bits of fresh one-iteration runs at that threshold
        u = smooth_field(rng, (14, 14))
        p = PMParams(delta=1.0, iterations=3)
        b = derivatives(u)
        thr = float(np.quantile(np.sqrt(b.ux**2 + b.uy**2), 0.9))
        manual = u
        for _ in range(3):
            manual = run_directional_ad(manual, replace(p, iterations=1), thr)
        np.testing.assert_array_equal(run_directional_ad(u, p), manual)
        # default and explicit thresholds, bit for bit, on every run shape
        for shape in RUN_SHAPES:
            u = rng.normal(1.0, 0.1, shape)
            b = derivatives(u)
            default = float(np.quantile(np.sqrt(b.ux * b.ux + b.uy * b.uy), 0.9))
            for kind in ("rational", "exponential"):
                p = PMParams(delta=0.05, iterations=4, diffusivity_kind=kind)
                for given, thr in ((None, default), (0.02, 0.02)):
                    manual = u
                    for _ in range(p.iterations):
                        manual = run_directional_ad(manual, replace(p, iterations=1), thr)
                    assert_same_bits(run_directional_ad(u, p, given), manual)


class TestBaselinesMatchWholeSlice:
    """run_orthogonal and run_directional_ad equal whole-slice evaluations
    from the reference derivatives, curvature_terms and PM weights, bit for
    bit. Integer-valued fields have zero-gradient pixels under a non-zero
    Hessian (about one in fifteen), where D_o is 0."""

    @staticmethod
    def field(rng, shape, values):
        if values == "integer":
            return rng.integers(0, 4, shape).astype(float)
        return rng.normal(1.0, 0.1, shape)

    @pytest.mark.parametrize("values", ["normal", "integer"])
    @pytest.mark.parametrize("kind", ["rational", "exponential"])
    @pytest.mark.parametrize("shape", RUN_SHAPES)
    def test_run_orthogonal(self, rng, shape, kind, values):
        u = self.field(rng, shape, values)
        p = PMParams(delta=default_delta(u), iterations=4, diffusivity_kind=kind)
        assert_same_bits(run_orthogonal(u, p), whole_slice_orthogonal(u, p))

    @pytest.mark.parametrize("threshold", ["default", "zero", "median", "inf"])
    @pytest.mark.parametrize("values", ["normal", "integer"])
    @pytest.mark.parametrize("kind", ["rational", "exponential"])
    @pytest.mark.parametrize("shape", RUN_SHAPES)
    def test_run_directional_ad(self, rng, shape, kind, values, threshold):
        u = self.field(rng, shape, values)
        p = PMParams(delta=default_delta(u), iterations=4, diffusivity_kind=kind)
        thr = {
            "default": None,
            "zero": 0.0,
            "median": float(np.median(np.sqrt(squared_gradient(derivatives(u))))),
            "inf": math.inf,
        }[threshold]
        assert_same_bits(run_directional_ad(u, p, thr), whole_slice_directional_ad(u, p, thr))

    @pytest.mark.parametrize("strip_pixels", [1, 20, 33, 70])
    def test_at_any_strip_height(self, monkeypatch, rng, strip_pixels):
        # width 16: strips of 1, 1, 2 and 4 rows over 11 rows
        monkeypatch.setattr(diffusion, "_STRIP_PIXELS", strip_pixels)
        for values in ("normal", "integer"):
            u = self.field(rng, (11, 16), values)
            median = float(np.median(np.sqrt(squared_gradient(derivatives(u)))))
            for kind in ("rational", "exponential"):
                p = PMParams(delta=default_delta(u), iterations=4, diffusivity_kind=kind)
                assert_same_bits(run_orthogonal(u, p), whole_slice_orthogonal(u, p))
                for thr in (None, median):
                    assert_same_bits(run_directional_ad(u, p, thr),
                                     whole_slice_directional_ad(u, p, thr))

    def test_workspace_memory(self, rng):
        # the loop's iterate, the padded field, the update and the strip
        # buffers trace about 6.6 slices, as run_filter's do, DAD's default
        # threshold taken in place; a whole-slice workspace traced 13.3,
        # and kernels allocating every temporary afresh 17 to 22
        u = rng.normal(1.0, 0.1, (256, 256))
        p = PMParams(delta=0.05, iterations=2)
        for run in (run_orthogonal, run_directional_ad):
            run(u, p)  # leaves numpy's lazy set-up out of the traced call
            tracemalloc.start()
            try:
                run(u, p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 7 * u.nbytes


class TestStructurenessIntegration:
    def test_reference_structureness_nonnegative(self, rng):
        u = smooth_field(rng, (10, 10))
        c = structureness(derivatives(u))
        assert np.all(c >= 0.0)


# Stacks of the worker tests: one 256x256 and one 512x512 slice; slices of
# two strips, the last short (300x64: 256 + 44 rows, 250x100: 163 + 87);
# three strips, the worker's between this thread's two, the last short
# (700x64: 256, 256, 188 rows); two slices of two strips each, whose mip
# bounds the worker takes for both, in two rows of the iterate buffer
# (300x64x2); and two 64x64 slices, one strip, run by no worker.
WORKER_STACKS = {
    "256x256": (1, 256, 256),
    "512x512": (1, 512, 512),
    "300x64": (1, 300, 64),
    "250x100": (1, 250, 100),
    "700x64": (1, 700, 64),
    "300x64x2": (2, 300, 64),
    "64x64x2": (2, 64, 64),
}

# every filter call on a 2-D field, one step each
FILTER_CALLS = {
    "pm_step": lambda u: pm_step(u, PMParams(delta=1.0)),
    "directional_step-mip": lambda u: directional_step(u, AdaptiveParams(mode="mip")),
    "directional_step-mip_min": lambda u: directional_step(u, AdaptiveParams(mode="mip_min")),
    "run_pm": lambda u: run_pm(u, PMParams(delta=1.0, iterations=1)),
    "run_orthogonal": lambda u: run_orthogonal(u, PMParams(delta=1.0, iterations=1)),
    "run_directional_ad": lambda u: run_directional_ad(u, PMParams(delta=1.0, iterations=1)),
    "run_filter-mip": lambda u: run_filter(u, AdaptiveParams(mode="mip", max_iterations=1)),
    "run_filter-mip_min": lambda u: run_filter(u, AdaptiveParams(mode="mip_min",
                                                                 max_iterations=1)),
}


@pytest.fixture
def workers(monkeypatch):
    """A function that sets the CPU count the filters see, and returns the
    list of the workers started from then on."""
    started = []

    class Counted(diffusion._Worker):
        def __init__(self):
            started.append(self)
            super().__init__()

    def cpus(n):
        monkeypatch.setattr(diffusion, "_cpus", lambda: n)
        started.clear()
        return started

    monkeypatch.setattr(diffusion, "_Worker", Counted)
    return cpus


class TestStripWorker:
    """A lone call whose slices span two or more strips, as every public
    filter makes, runs every other strip on a worker thread, when the
    process may use more than one CPU; the outputs and traces are those of
    one thread, bit for bit, the worker keeps the caller's floating-point
    error state, and no call leaves a thread behind. The CLI's streams of
    such stacks run them two at a time instead (``TestStream``)."""

    @staticmethod
    def filters(stack):
        """Every filter's results on ``stack``, its stack code and the 2-D
        functions on its first slice, checking after each call that it
        left no thread running."""
        threads = threading.active_count()
        outs = []

        def keep(*got):
            assert threading.active_count() == threads
            outs.extend(got)

        def trace(out, traces):
            return out, *(np.array(t.relative_changes) for t in traces), \
                *(t.basis_sum for t in traces)

        p = PMParams(delta=0.05, iterations=2)
        keep(diffusion._pm_stack(stack, p))
        keep(diffusion._orthogonal_stack(stack, p))
        for threshold in (None, 0.02):
            keep(diffusion._directional_ad_stack(stack, p, threshold))
        for mode in ("mip_min", "mip"):
            params = AdaptiveParams(alpha=2.0, mode=mode, max_iterations=2)
            keep(directional_step(stack[0], params))
            out, tr = run_filter(stack[0], params)
            keep(*trace(out, [tr]))
            keep(*trace(*diffusion._filter_stack(stack, params)))
        keep(*hysteresis_filter(stack[0], AdaptiveParams(mode="mip", max_iterations=2),
                                HysteresisParams()))
        return outs

    @pytest.mark.parametrize("shape", WORKER_STACKS.values(), ids=WORKER_STACKS.keys())
    def test_worker_changes_no_bit(self, workers, rng, shape):
        stack = rng.normal(1.0, 0.1, shape)
        started = workers(1)
        alone = self.filters(stack)
        assert started == []
        started = workers(2)
        paired = self.filters(stack)
        # one per call of more than one strip; hysteresis_filter makes three
        assert len(started) == (0 if shape[1] * shape[2] <= diffusion._STRIP_PIXELS else 13)
        assert len(alone) == len(paired)
        for a, b in zip(alone, paired):
            assert_same_bits(b, a)

    def test_concurrent_calls_under_fast_switching(self, workers, rng):
        # four callers and their four workers on two CPUs or fewer, the
        # interpreter switching threads every microsecond: each call keeps
        # its own workspace, and each caller gets one thread's bits; two
        # callers run mip mode, whose bounds and gate pass are split too
        u = rng.normal(1.0, 0.1, (700, 64))
        params = [AdaptiveParams(alpha=2.0, mode=m, max_iterations=3) for m in ("mip_min", "mip")]
        workers(1)
        want = [run_filter(u, p)[0] for p in params] * 2
        started = workers(2)
        got = [None] * 4

        def call(i):
            got[i] = run_filter(u, params[i % 2])[0]

        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert len(started) == 4
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_overflow_in_the_workers_strip(self, workers, cpus):
        # 300x64: the worker, if any, runs the second strip, rows 256 to 299
        u = np.ones((300, 64))
        u[280, 3], u[280, 4] = 1.7e308, -1.7e308
        started = workers(cpus)
        threads = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning from either thread fails its call
            for call in FILTER_CALLS.values():
                with np.errstate(all="ignore"), \
                        pytest.raises(ValueError, match="^field contains NaN or Inf values$"):
                    call(u)
                assert threading.active_count() == threads
                # no strip of this thread's overflows: the worker raises, in
                # the caller's error state, and its error reaches the caller
                with np.errstate(all="raise"), pytest.raises(FloatingPointError):
                    call(u)
                assert threading.active_count() == threads
        assert len(started) == (2 * len(FILTER_CALLS) if cpus == 2 else 0)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_overflow_in_the_workers_gate_pass(self, workers, cpus):
        # a bump of 1e4 in the worker's strip: at alpha = 1e300 the map
        # pass's k = alpha * c / 2 stays finite, and only the gate pass's
        # k * d overflows, which tanh takes to +-1
        u = np.ones((300, 64))
        u[280, 3] = 1e4
        params = AdaptiveParams(alpha=1e300, mode="mip", max_iterations=1)
        ws = diffusion._Workspace(u[None])
        maps = np.empty((2, 1, 300, 64))
        with np.errstate(all="raise"):
            diffusion._sweep(ws, u[None], diffusion._mip_maps, 0.5 * params.alpha,
                             outs=(ws.update, *maps))
        assert np.isfinite(maps).all() and (abs(maps[0]) * (maps[1] * 1e-300) > 1.8e8).any()
        started = workers(cpus)
        threads = threading.active_count()
        with np.errstate(all="ignore"):
            assert np.isfinite(run_filter(u, params)[0]).all()
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            run_filter(u, params)
        assert threading.active_count() == threads
        assert len(started) == (2 if cpus == 2 else 0)

    @pytest.mark.parametrize("shape", [(1, 512, 512), (1, 300, 64), (2, 300, 64), (8, 24, 40)],
                             ids=["512x512", "300x64", "300x64x2", "24x40x8"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_mip_passes_read_no_stale_value(self, monkeypatch, workers, rng, shape, cpus):
        # after mip mode's map pass, every strip buffer and the iterate
        # buffer hold NaN (the masks True): the bounds and the gate-and-sum
        # pass write before they read, and the run keeps its bits
        stack = rng.normal(1.0, 0.1, shape)
        params = AdaptiveParams(alpha=2.0, mode="mip", max_iterations=3, tolerance=1e-300)
        workers(cpus)
        want = diffusion._filter_stack(stack, params)
        sweep = diffusion._sweep

        def stale(ws, *args, **kwargs):
            got = sweep(ws, *args, **kwargs)
            ws.it.fill(np.nan)
            for _, bufs, _ in ws.strips:
                for b in bufs[:8]:
                    b.fill(np.nan)
                bufs[8].fill(True)
            return got

        monkeypatch.setattr(diffusion, "_sweep", stale)
        out, traces = diffusion._filter_stack(stack, params)
        assert_same_bits(out, want[0])
        for got, w in zip(traces, want[1]):
            assert got.relative_changes == w.relative_changes
            assert_same_bits(got.basis_sum, w.basis_sum)


# the jobs of every stream consumer: each baseline, DAD with its default
# threshold and a fixed one, both modes, and the identity at gain 0, whose
# job has no workspace
STREAM_PM = PMParams(delta=0.05, iterations=2)
STREAM_JOBS = [
    (diffusion._pm_job, STREAM_PM),
    (diffusion._orthogonal_job, STREAM_PM),
    (diffusion._directional_ad_job, STREAM_PM, None),
    (diffusion._directional_ad_job, STREAM_PM, 0.02),
    (diffusion._filter_job, AdaptiveParams(alpha=2.0, mode="mip_min", max_iterations=2)),
    (diffusion._filter_job, AdaptiveParams(alpha=2.0, mode="mip", max_iterations=2)),
    (diffusion._filter_job, AdaptiveParams(alpha=0.0)),
]


class TestStream:
    """``_stream`` runs stacks of slices of two or more strips two at a
    time, one per thread, where the process may use two CPUs. At 300x64
    each slice is two strips and one stack, so five slices make two pairs
    and a lone last stack, which splits its strips over both threads. The
    results, their order and the errors are those of one thread, bit for
    bit; one worker serves the whole stream, every workspace is built in
    the calling thread, and no stream leaves a thread behind."""

    @staticmethod
    def stream(slices, jobs):
        """What ``_stream`` yields: per job, its (output, relative changes,
        basis sums) in the order yielded, and the job order of the yields;
        checks that the stream left no thread running."""
        threads = threading.active_count()
        per_job, order = [[] for _ in jobs], []
        for j, (out, traces) in diffusion._stream(slices, jobs):
            order.append(j)
            per_job[j].append((out, [t.relative_changes for t in traces],
                               [t.basis_sum for t in traces]))
        assert threading.active_count() == threads
        return per_job, order

    @staticmethod
    def assert_same_results(got, want):
        assert len(got) == len(want)
        for (out, changes, sums), (w_out, w_changes, w_sums) in zip(got, want):
            assert_same_bits(out, w_out)
            assert changes == w_changes
            for g, w in zip(sums, w_sums):
                assert_same_bits(g, w)

    @pytest.mark.parametrize("shape", [(5, 300, 64), (5, 64, 64)], ids=["300x64x5", "64x64x5"])
    def test_stream_changes_no_bit(self, workers, rng, shape):
        vol = rng.normal(1.0, 0.1, shape)
        started = workers(1)
        alone, alone_order = self.stream(vol, STREAM_JOBS)
        assert started == []
        started = workers(2)
        paired, paired_order = self.stream(vol, STREAM_JOBS)
        # one worker for the whole stream, or none where a slice is one strip
        assert len(started) == (1 if shape[1] == 300 else 0)
        for got, want in zip(paired, alone):
            self.assert_same_results(got, want)
        # each job's results in stack order: the serial order stack by
        # stack; the pairs run each job on both stacks before the next
        n = len(STREAM_JOBS)
        assert alone_order == [j for _ in range(len(alone[0])) for j in range(n)]
        if shape[1] == 300:
            pair = [j for j in range(n) for _ in range(2)]
            assert paired_order == pair + pair + list(range(n))
        # each slice has the bits of its own serial run
        for (build, *args), got in zip(STREAM_JOBS, alone):
            outs = np.concatenate([out for out, _, _ in got])
            changes = [c for _, cs, _ in got for c in cs]
            for sl, out, c in zip(vol, outs, changes, strict=True):
                want, (trace,) = diffusion._serial(*build(sl[None], *args))
                assert_same_bits(out, want[0])
                assert c == trace.relative_changes

    def test_one_job_streams_in_serial_order(self, workers, rng):
        vol = rng.normal(1.0, 0.1, (5, 300, 64))
        job = [STREAM_JOBS[4]]
        workers(1)
        want, _ = self.stream(vol, job)
        workers(2)
        got, order = self.stream(iter(vol), job)
        assert order == [0] * 5
        self.assert_same_results(got[0], want[0])

    def test_a_lone_stack_splits_its_strips_on_the_streams_worker(self, monkeypatch, workers,
                                                                  rng):
        # a pair runs each stack's strips in one thread; the lone last stack
        # runs its first job on the worker alone, then lends the worker to
        # the strip passes of each job after it
        split, workers_seen = diffusion._split, []

        def record(ws, n, job):
            workers_seen.append(ws.worker)
            return split(ws, n, job)

        monkeypatch.setattr(diffusion, "_split", record)
        started = workers(2)
        self.stream(rng.normal(1.0, 0.1, (5, 300, 64)), STREAM_JOBS)
        assert len(started) == 1
        assert None in workers_seen and set(workers_seen) == {None, started[0]}

    def test_workspaces_are_built_in_the_calling_thread(self, monkeypatch, workers, rng):
        built = []

        class Recorded(diffusion._Workspace):
            def __init__(self, *args, **kwargs):
                built.append(threading.current_thread())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(diffusion, "_Workspace", Recorded)
        started = workers(2)
        self.stream(rng.normal(1.0, 0.1, (5, 300, 64)), STREAM_JOBS)
        assert len(started) == 1
        # five stacks, each job but the gain-0 identity with a workspace
        assert built == [threading.current_thread()] * (5 * (len(STREAM_JOBS) - 1))

    @staticmethod
    def until_error(slices, jobs, error):
        """The outputs a stream yields before it raises ``error``, per job."""
        got = [[] for _ in jobs]
        with pytest.raises(error) as info:
            for j, (out, _) in diffusion._stream(slices, jobs):
                got[j].append(out)
        return got, info.value

    @staticmethod
    def assert_same_outputs(got, want):
        assert [len(g) for g in got] == [len(w) for w in want]
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert_same_bits(a, b)

    @pytest.mark.parametrize("bad", [0, 1, 4], ids=["worker's stack", "this thread's stack",
                                                    "lone stack"])
    def test_overflow_reaches_the_caller(self, workers, rng, bad):
        # 1.7e308 beside -1.7e308: every kernel's differences overflow. In
        # a pair, stack 0 runs on the worker and stack 1 in this thread
        vol = rng.normal(1.0, 0.1, (5, 300, 64))
        vol[bad, 280, 3], vol[bad, 280, 4] = 1.7e308, -1.7e308
        jobs = STREAM_JOBS[:-1]
        results = {}
        for cpus in (1, 2):
            started = workers(cpus)
            threads = threading.active_count()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning from either thread fails the stream
                # some of mip mode's products of this field underflow
                # (0.5 * b in fields._gradient_strip), serially too
                with np.errstate(all="raise", under="ignore"):
                    raised, _ = self.until_error(vol, jobs, FloatingPointError)
                with np.errstate(all="ignore"):
                    ignored, exc = self.until_error(vol, jobs, ValueError)
            assert str(exc) == "field contains NaN or Inf values"
            assert threading.active_count() == threads
            assert len(started) == (2 if cpus == 2 else 0)
            results[cpus] = raised, ignored
        for got, want in zip(results[2], results[1]):
            self.assert_same_outputs(got, want)
        # every job's results on the stacks before the bad one
        assert [len(g) for g in results[1][0]] == [bad] * len(jobs)

    @pytest.mark.parametrize("bad", [1, 2, 4])
    def test_a_bad_read_gives_the_serial_error(self, workers, rng, bad):
        # a NaN in slice `bad`, or a reader failing there: the stacks before
        # it are yielded first, the pair's first stack included
        vol = rng.normal(1.0, 0.1, (5, 300, 64))
        nan = vol.copy()
        nan[bad, 7, 9] = np.nan

        def failing():
            yield from vol[:bad]
            raise OSError("read failed")

        for slices, error, match in ((lambda: nan, ValueError, "field contains NaN or Inf"),
                                     (failing, OSError, "read failed")):
            results = {}
            for cpus in (1, 2):
                workers(cpus)
                threads = threading.active_count()
                got, exc = self.until_error(slices(), STREAM_JOBS, error)
                assert match in str(exc)
                assert threading.active_count() == threads
                results[cpus] = got
            assert [len(g) for g in results[1]] == [bad] * len(STREAM_JOBS)
            self.assert_same_outputs(results[2], results[1])

    @staticmethod
    def failing(fails):
        """A job without a workspace whose result is its stack, and whose run
        raises ``ValueError("stack <i>")`` on the stacks tagged i in ``fails``."""
        def build(u, threads=True):
            i = int(u[0, 0, 0])

            def run():
                if i in fails:
                    raise ValueError(f"stack {i}")
                return u, []

            return None, run

        return (build,)

    @pytest.mark.parametrize("fails, error", [
        ([{1}, set()], "stack 1"),  # the second stack of the first pair
        ([{3}, {2}], "stack 2"),  # the second pair's second stack, then its first
        ([set(), {4}], "stack 4"),  # the lone stack, after both pairs
        ([{1}, {0}], "stack 0"),
    ])
    def test_earliest_error_wins(self, workers, fails, error):
        vol = np.arange(5.0)[:, None, None] + np.zeros((5, 300, 64))  # tagged 0 to 4
        jobs = [self.failing(f) for f in fails]
        for cpus in (1, 2):
            workers(cpus)
            threads = threading.active_count()
            got, exc = self.until_error(vol, jobs, ValueError)
            assert str(exc) == error
            assert threading.active_count() == threads
            # each job's results on the stacks before the failing one
            first = int(error.split()[1])
            for g in got:
                assert [int(out[0, 0, 0]) for out in g][:first] == list(range(first))

    def test_a_step_error_wins_over_the_next_read(self, workers, rng):
        # stack 0 overflows on the worker, and the read of stack 1 finds a
        # NaN: the step's error is raised, as in a serial run
        vol = rng.normal(1.0, 0.1, (5, 300, 64))
        vol[0, 280, 3], vol[0, 280, 4] = 1.7e308, -1.7e308
        vol[1, 7, 9] = np.nan
        for cpus in (1, 2):
            workers(cpus)
            with np.errstate(all="raise"):
                assert self.until_error(vol, STREAM_JOBS[:1], FloatingPointError)[0] == [[]]
        # a check that refuses the job's settings fails before any run
        with pytest.raises(ValueError, match="grad_threshold must not be NaN"):
            next(diffusion._stream(vol[2:], [(diffusion._directional_ad_job, STREAM_PM,
                                              math.nan)]))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_consumer_that_stops_early_leaves_no_thread(self, workers, rng, cpus):
        vol = rng.normal(1.0, 0.1, (5, 300, 64))
        started = workers(cpus)
        threads = threading.active_count()
        stream = diffusion._stream(vol, STREAM_JOBS)
        next(stream)
        assert threading.active_count() == threads + (cpus == 2)
        stream.close()
        assert threading.active_count() == threads
        for _ in diffusion._stream(vol, STREAM_JOBS):
            break
        assert threading.active_count() == threads
        with pytest.raises(RuntimeError):
            for _ in diffusion._stream(vol, STREAM_JOBS):
                raise RuntimeError("the consumer failed")
        assert threading.active_count() == threads
        assert len(started) == (3 if cpus == 2 else 0)


class TestEigenvectorFreeHotPath:
    """The filters run from the padded buffer and the strip kernels alone,
    without np.pad. The whole-slice derivatives, structureness and
    curvature terms are no longer in the library, only in the test
    references, so np.pad is what is left to guard."""

    @pytest.fixture
    def no_np_pad(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("np.pad called on the hot path")

        monkeypatch.setattr(np, "pad", boom)

    def test_filters_run_without_eigenvectors(self, rng):
        u = smooth_field(rng, (24, 24), offset=1.0, scale=0.1)
        for mode in ("mip", "mip_min"):
            out, _ = run_filter(u, AdaptiveParams(mode=mode, max_iterations=2))
            assert np.all(np.isfinite(out))
            assert np.all(np.isfinite(directional_step(u, AdaptiveParams(mode=mode))))
        p = PMParams(delta=0.05, iterations=1)
        assert np.all(np.isfinite(run_directional_ad(u, p, grad_threshold=0.01)))
        assert np.all(np.isfinite(run_orthogonal(u, p)))

    def test_run_loops_read_the_padded_stencil(self, no_np_pad, rng):
        u = rng.normal(1.0, 0.1, (24, 24))  # smooth_field would call np.pad
        p = PMParams(delta=0.05, iterations=3)
        assert np.all(np.isfinite(run_orthogonal(u, p)))
        assert np.all(np.isfinite(run_directional_ad(u, p)))
        assert np.all(np.isfinite(run_directional_ad(u, p, 0.01)))

    def test_orthogonal_step_keeps_zero_gradient_pixels(self):
        # paraboloid: zero gradient but non-zero Hessian at its centre
        y, x = np.mgrid[0:11, 0:11].astype(np.float64)
        u = 1.0 + 0.01 * ((x - 5.0) ** 2 + (y - 5.0) ** 2)
        b = derivatives(u)
        still = (b.ux == 0.0) & (b.uy == 0.0)
        assert still[5, 5] and b.uxx[5, 5] != 0.0
        out = run_orthogonal(u, PMParams(delta=0.05, iterations=1))
        np.testing.assert_array_equal(out[still], u[still])
        assert np.any(out[~still] != u[~still])

    def test_filters_run_without_derivatives_or_pad(self, no_np_pad, rng):
        u = rng.normal(1.0, 0.1, (60, 300))  # strips of 54 and 6 rows
        for mode in ("mip", "mip_min"):
            out, _ = run_filter(u, AdaptiveParams(mode=mode))
            assert np.all(np.isfinite(out))
            assert np.all(np.isfinite(directional_step(u, AdaptiveParams(mode=mode))))
            combined, _, _ = hysteresis_filter(u, AdaptiveParams(mode=mode), HysteresisParams())
            assert np.all(np.isfinite(combined))
        p = PMParams(delta=0.05, iterations=2)
        assert np.all(np.isfinite(run_orthogonal(u, p)))
        assert np.all(np.isfinite(run_directional_ad(u, p)))

    @pytest.fixture
    def as_field_calls(self, monkeypatch):
        from mipdiff import fields

        calls = []
        real = fields.as_field

        def counted(data):
            calls.append(1)
            return real(data)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mipdiff" or mod_name.startswith("mipdiff."):
                if getattr(mod, "as_field", None) is real:
                    monkeypatch.setattr(mod, "as_field", counted)
        return calls

    def test_each_call_validates_its_field_once(self, as_field_calls, rng):
        u = rng.normal(1.0, 0.1, (24, 24))
        for mode in ("mip", "mip_min"):
            as_field_calls.clear()
            _, trace = run_filter(u, AdaptiveParams(mode=mode, tolerance=1e-300))
            assert trace.iterations == 6
            assert len(as_field_calls) == 1
            as_field_calls.clear()
            directional_step(u, AdaptiveParams(mode=mode))
            assert len(as_field_calls) == 1
        p = PMParams(delta=0.05, iterations=3)
        for run in (pm_step, run_pm, run_orthogonal, run_directional_ad,
                    lambda v, q: run_directional_ad(v, q, 0.01)):
            as_field_calls.clear()
            run(u, p)
            assert len(as_field_calls) == 1

    def test_runs_leave_their_input_alone(self, rng):
        u = rng.normal(1.0, 0.1, (24, 24))
        u.setflags(write=False)  # a write into the input raises
        before = u.tobytes()
        p = PMParams(delta=0.05, iterations=3)
        outs = [run_pm(u, p), run_orthogonal(u, p), run_directional_ad(u, p)]
        for mode in ("mip", "mip_min"):
            for alpha in (0.0, 0.5):
                outs.append(run_filter(u, AdaptiveParams(alpha=alpha, mode=mode))[0])
        assert u.tobytes() == before
        for out in outs:
            assert not np.shares_memory(out, u)

    def test_kept_errors(self):
        bad = np.ones((5, 5))
        bad[2, 2] = np.nan
        tiny = np.array([[1.0, 2.0], [3.0, 4.0]])
        for mode in ("mip", "mip_min"):
            params = AdaptiveParams(mode=mode)
            for call in (run_filter, directional_step):
                with pytest.raises(ValueError, match="NaN or Inf"):
                    call(bad, params)
                with pytest.raises(ValueError, match="3x3"):
                    call(np.ones((2, 5)), params)
            out, trace = run_filter(tiny, AdaptiveParams(alpha=0.0, mode=mode))
            np.testing.assert_array_equal(out, tiny)
            assert trace.iterations == 1 and trace.converged
            np.testing.assert_array_equal(
                directional_step(tiny, AdaptiveParams(alpha=0.0, mode=mode)), tiny
            )

    def test_non_finite_iterate_stops_the_run(self, rng):
        # the stencil overflows on the first step, which is refused as a
        # non-finite input is refused, whether or not another step follows
        u = 1e308 * rng.uniform(-1.0, 1.0, (8, 8))
        # scalar diffusion lets large differences be, but one that
        # overflows gives its face a NaN flux
        checker = 1e308 * (-1.0) ** np.add.outer(np.arange(8), np.arange(8))
        with np.errstate(all="ignore"):
            for n in (1, 2):
                with pytest.raises(ValueError, match="^field contains NaN or Inf values$"):
                    run_filter(u, AdaptiveParams(alpha=2.0, max_iterations=n))
                for run, v in ((run_pm, checker), (run_orthogonal, u), (run_directional_ad, u)):
                    with pytest.raises(ValueError, match="^field contains NaN or Inf values$"):
                        run(v, PMParams(delta=1.0, iterations=n))

    @pytest.mark.parametrize("call", FILTER_CALLS.values(), ids=FILTER_CALLS.keys())
    def test_overflowing_step_refused(self, call):
        # every stencil's difference of the two neighbours overflows
        u = np.ones((8, 8))
        u[3, 3], u[3, 4] = 1.7e308, -1.7e308
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="^field contains NaN or Inf values$"):
            call(u)


class TestExactnessRange:
    """The strip kernels carry the stencil's factors of two, which is exact
    while every value stays normal: every filter equals its whole-slice
    reference, which takes each derivative at its own size, bit for bit, on
    float32 values, as a MIPVOL input holds them, at the ends of that input
    domain, on one slice split into strips and on stacks of 24x40 slices
    whose pad rows lie inside a strip (eight and one)."""

    @staticmethod
    def field(rng, shape, values):
        if values == "integer":  # zero-gradient pixels under a non-zero Hessian
            v = rng.integers(0, 4, shape)
        elif values == "subnormal":  # float32 subnormals lie below 1.18e-38
            v = rng.uniform(0.0, 1e-39, shape)
        else:
            v = rng.normal(1.0, 0.1, shape) * {"1e-38": 1e-38, "1e38": 1e38}[values]
        return np.asarray(v, dtype=np.float32).astype(np.float64)

    @pytest.mark.parametrize("values", ["1e-38", "subnormal", "1e38", "integer"])
    @pytest.mark.parametrize("shape", [(9, 24, 40), (1, 60, 300)], ids=["40x24x9", "300x60"])
    def test_filters_match_whole_slice(self, rng, shape, values):
        stack = self.field(rng, shape, values)
        if values == "subnormal":
            assert np.all(np.abs(stack) < np.finfo(np.float32).tiny)
        for mode in ("mip_min", "mip"):
            params = AdaptiveParams(alpha=2.0, mode=mode, max_iterations=3)
            out, traces = diffusion._filter_stack(stack, params)
            for sl, got, trace in zip(stack, out, traces):
                want, changes, basis = whole_slice_run(sl, params)
                assert_same_bits(got, want)
                assert trace.relative_changes == changes
                assert_same_bits(trace.basis_sum, basis)
        # the contrast scale compare takes from the input's range
        p = PMParams(delta=default_delta([[stack.min(), stack.max()]]), iterations=3)
        for sl, got in zip(stack, diffusion._orthogonal_stack(stack, p)):
            assert_same_bits(got, whole_slice_orthogonal(sl, p))
        # each slice's default threshold, from the strips' |grad u|
        for sl, got in zip(stack, diffusion._directional_ad_stack(stack, p, None)):
            assert_same_bits(got, whole_slice_directional_ad(sl, p))

    @pytest.mark.parametrize("values", ["1e-38", "subnormal", "1e38", "integer"])
    def test_structureness_matches_whole_slice(self, rng, values):
        stack = self.field(rng, (9, 24, 40), values)
        got = diffusion._sweep(diffusion._Workspace(stack), stack,
                               lambda nb, buf: diffusion._curvature_strip(nb, buf)[3])
        for sl, c in zip(stack, got):
            assert_same_bits(c, structureness(derivatives(sl)))
        TestHysteresis.runs(stack[0], None)


class TestStacks:
    """Each filter's stack code, which the CLI runs on stacks of
    ``_batch(ny, nx)`` slices, equals runs of its public 2-D function on
    each slice alone, bit for bit, traces included. At 64x64 two slices
    fill a strip, so three are a full strip and a short one; at 24x40
    eight do, so nine are eight and one."""

    PM = PMParams(delta=0.05, iterations=4)

    @staticmethod
    def stack(rng, shape, k):
        # every slice at its own noise scale: bounds, thresholds or norms
        # taken over the stack instead of the slice would show
        return np.stack([rng.normal(1.0, 0.02 * (i + 1), shape) for i in range(k)])

    @staticmethod
    def check_filter(stack, params):
        out, traces = diffusion._filter_stack(stack, params)
        assert out.shape == stack.shape and len(traces) == len(stack)
        for sl, got, trace in zip(stack, out, traces):
            want, want_trace = run_filter(sl, params)
            assert_same_bits(got, want)
            assert trace.iterations == want_trace.iterations
            np.testing.assert_array_equal(trace.relative_changes, want_trace.relative_changes)
            assert trace.converged == want_trace.converged
            assert_same_bits(trace.basis_sum, want_trace.basis_sum)
        return traces

    @staticmethod
    def check_baselines(stack, params, threshold=None):
        runs = [
            (diffusion._pm_stack, run_pm),
            (diffusion._orthogonal_stack, run_orthogonal),
            (lambda s, p: diffusion._directional_ad_stack(s, p, threshold),
             lambda s, p: run_directional_ad(s, p, threshold)),
        ]
        for stack_run, run in runs:
            out = stack_run(stack, params)
            assert out.shape == stack.shape
            for sl, got in zip(stack, out):
                assert_same_bits(got, run(sl, params))

    @pytest.mark.parametrize("shape", [(2, 64, 64), (1, 64, 64), (1, 256, 256), (1, 512, 512),
                                       (8, 32, 32), (8, 24, 40)],
                             ids=["64x64x2", "64x64", "256x256", "512x512", "32x32x8", "24x40x8"])
    def test_stack_norms_are_slice_norms(self, rng, shape):
        # _run takes a stack's norms in one call over the padded buffer's
        # strided interior: each is its slice's own sum, bit for bit
        k, ny, nx = shape
        q = rng.normal(1.0, 0.1, k * (ny + 2) * (nx + 2))
        old = q.reshape(k, ny + 2, nx + 2)[:, 1:-1, 1:-1]
        want = [math.sqrt(np.einsum("ij,ij->", x, x)) for x in old]
        assert_same_bits(np.array(diffusion._norms(old)), np.array(want))

    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    @pytest.mark.parametrize("shape", [(64, 64), (24, 40)], ids=["64x64", "24x40"])
    def test_stack_equals_its_slices(self, rng, shape, k):
        stack = self.stack(rng, shape, k)
        for mode in ("mip_min", "mip"):
            self.check_filter(stack, AdaptiveParams(alpha=2.0, mode=mode, max_iterations=3))
        self.check_filter(stack, AdaptiveParams(alpha=0.0))
        for kind in ("rational", "exponential"):
            params = replace(self.PM, diffusivity_kind=kind)
            self.check_baselines(stack, params)
            self.check_baselines(stack, params, 0.03)

    @pytest.mark.parametrize("mode", ["mip_min", "mip"])
    @pytest.mark.parametrize("flat_first", [True, False])
    def test_flat_slice_stops_while_its_neighbour_runs(self, rng, mode, flat_first):
        flat, noisy = np.full((64, 64), 0.7), rng.normal(1.0, 0.1, (64, 64))
        stack = np.stack([flat, noisy] if flat_first else [noisy, flat])
        traces = self.check_filter(stack, AdaptiveParams(mode=mode))
        t_flat, t_noisy = traces if flat_first else traces[::-1]
        assert t_flat.iterations == 1 and t_flat.converged
        assert t_noisy.iterations == 6 and not t_noisy.converged

    def test_stopped_slice_keeps_its_last_update(self, rng):
        # a tolerance between the two slices' first changes: the quiet one
        # stops with a non-zero update, which the next step overwrites in
        # the stack's update buffer
        quiet, loud = rng.normal(1.0, 0.002, (24, 40)), rng.normal(1.0, 0.1, (24, 40))
        first = [run_filter(u, AdaptiveParams(max_iterations=1))[1].relative_changes[0]
                 for u in (quiet, loud)]
        params = AdaptiveParams(tolerance=math.sqrt(first[0] * first[1]))
        traces = self.check_filter(np.stack([quiet, loud, quiet]), params)
        assert [t.iterations for t in traces] == [1, 6, 1]
        assert np.any(traces[0].basis_sum != 0.0)

    def test_slice_going_non_finite_raises(self, rng):
        # the bad slice's first step overflows, at either end of the stack,
        # and is refused whether or not another step follows
        good = rng.normal(1.0, 0.1, (8, 8))
        bad = 1e308 * rng.uniform(-1.0, 1.0, (8, 8))
        checker = 1e308 * (-1.0) ** np.add.outer(np.arange(8), np.arange(8))
        runs = [
            (lambda s, n: diffusion._filter_stack(s, AdaptiveParams(alpha=2.0, max_iterations=n)),
             bad),
            (lambda s, n: diffusion._pm_stack(s, PMParams(delta=1.0, iterations=n)), checker),
            (lambda s, n: diffusion._orthogonal_stack(s, PMParams(delta=1.0, iterations=n)), bad),
            (lambda s, n: diffusion._directional_ad_stack(s, PMParams(delta=1.0, iterations=n),
                                                          None), bad),
        ]
        with np.errstate(all="ignore"):
            for stack_run, v in runs:
                for pair in ([good, v], [v, good]):
                    for n in (1, 2):
                        with pytest.raises(ValueError,
                                           match="^field contains NaN or Inf values$"):
                            stack_run(np.stack(pair), n)

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_last_step_is_checked(self, iterations):
        # an update that takes the bad slice from 1e103 ** (3 - iterations)
        # past float64's range on step `iterations`, and no sooner; the
        # quiet slice stops after its first step and is kept from then on
        def update(v):  # the run reads the old iterate in the padded buffer
            _padded(v, ws.q)
            return np.multiply(v, scale, ws.update)

        for k in range(3):  # alone, and first or last beside the quiet slice
            start = np.full((2, 4, 4), 1e103 ** (3 - iterations))
            scale = np.full((2, 1, 1), 1e103)
            if k < 2:
                start[1 - k], scale[1 - k] = 1.0, 0.0
            else:
                start, scale = start[:1], scale[:1]
            ws = diffusion._Workspace(start)
            with np.errstate(all="ignore"):  # the norms of a finite step overflow
                if iterations > 1:
                    u, _ = diffusion._run(ws, start, 1.0, iterations - 1, 1e-300, update)
                    assert np.isfinite(u).all()
                with pytest.raises(ValueError, match="^field contains NaN or Inf values$"):
                    diffusion._run(ws, start, 1.0, iterations, 1e-300, update)

    def test_pm_takes_no_face_across_slices(self):
        # a face between the two slices' pad rows would be 2e150, and its
        # d^2 / delta^2 would overflow, which the suite turns into an error
        stack = np.stack([np.full((8, 8), 1e150), np.full((8, 8), -1e150)])
        p = PMParams(delta=1e-5)
        assert_same_bits(diffusion._pm_stack(stack, p), references.pm_stack(stack, p))
        assert_same_bits(diffusion._pm_stack(stack, p), stack)

    def test_mip_bounds_are_per_slice(self, rng):
        stack = self.stack(rng, (24, 40), 3)
        maps = [curvature_terms(derivatives(sl))[0] for sl in stack]
        assert histogram_bounds(maps[0]) != histogram_bounds(np.stack(maps))
        self.check_filter(stack, AdaptiveParams(alpha=2.0, mode="mip", max_iterations=2))

    def test_mip_gate_counts_each_slice_alone(self, rng):
        # 8x8 slices stay ungated however many pixels their stack holds
        stack = self.stack(rng, (8, 8), 3)
        assert stack[0].size < 100 <= stack.size
        params = AdaptiveParams(alpha=2.0, mode="mip", max_iterations=1)
        for sl, got in zip(stack, diffusion._filter_stack(stack, params)[0]):
            assert_same_bits(got, adaptive_mu_step(sl, params))

    def test_default_threshold_is_per_slice(self, rng):
        stack = self.stack(rng, (64, 64), 2)
        gnorm = [np.sqrt(squared_gradient(derivatives(sl))) for sl in stack]
        assert np.quantile(gnorm[0], 0.9) < np.quantile(np.stack(gnorm), 0.9)
        self.check_baselines(stack, self.PM)

    def test_stacks_of_a_reused_buffer(self, rng):
        vol = rng.normal(1.0, 0.1, (7, 64, 64)).astype(np.float32)
        buf = np.empty((64, 64), np.float32)

        def reused():
            for sl in vol:
                buf[...] = sl
                yield buf

        stacks = list(diffusion._stacks(reused()))
        assert [len(s) for s in stacks] == [2, 2, 2, 1]
        assert all(s.dtype == np.float64 and not np.shares_memory(s, buf) for s in stacks)
        np.testing.assert_array_equal(np.concatenate(stacks), vol.astype(np.float64))

    def test_stacks_check_each_slice(self):
        assert [len(s) for s in diffusion._stacks([np.ones((32, 32))] * 9)] == [8, 1]
        with pytest.raises(ValueError, match=r"shape \(32, 32\), got \(1, 32\)"):
            list(diffusion._stacks([np.ones((32, 32)), np.ones((1, 32))]))
        bad = np.ones((8, 8))
        bad[2, 3] = np.inf
        with pytest.raises(ValueError, match="^field contains NaN or Inf values$"):
            list(diffusion._stacks([np.ones((8, 8)), bad]))
        with pytest.raises(ValueError, match="expected a 2-D field"):
            list(diffusion._stacks([np.ones((2, 8, 8))]))


class TestBatchRule:
    """A stack of small slices is one strip, and no strip buffer reaches
    glibc's 128 KiB mmap threshold; slices over _STRIP_PIXELS keep their
    row strips."""

    @staticmethod
    def first_row(q, nb, width):
        """The row of the tall padded field at which a strip's centre view
        starts."""
        offset = (nb[0].__array_interface__["data"][0]
                  - q.__array_interface__["data"][0]) // q.itemsize
        return (offset - 1) // width - 1

    def test_slices_per_strip(self):
        assert [diffusion._batch(n, n) for n in (32, 64, 65, 90, 91, 256)] == [8, 2, 1, 1, 1, 1]
        assert diffusion._batch(24, 40) == 8

    def test_two_64x64_slices_are_one_strip(self):
        ws = diffusion._Workspace(np.zeros((2, 64, 64)))
        assert ws.update.shape == ws.it.shape == (2, 64, 64) and ws.q.size == 2 * 66 * 66 + 2
        ((nb, buf, pieces),) = ws.strips
        assert nb[0].shape == (130, 66) and self.first_row(ws.q, nb, 66) == 0
        assert [b.shape for b in buf] == [(130, 66)] * 9
        assert all(b.nbytes < 128 * 1024 for b in buf)
        # the copy-out skips the two pad rows between the slices
        assert pieces == [(slice(0, 64), slice(0, 64)), (slice(64, 128), slice(66, 130))]

    @pytest.mark.parametrize("spare", [0, 1], ids=["curvature", "pm"])
    @pytest.mark.parametrize("n", [3, 4, 8, 16, 32, 64, 90])
    def test_full_stack_strips_stay_under_the_mmap_threshold(self, n, spare):
        # run_pm's strip buffers have one spare row
        strips = diffusion._Workspace(np.zeros((diffusion._batch(n, n), n, n)), spare).strips
        assert len(strips) == 1
        assert all(b.nbytes < 128 * 1024 for b in strips[0][1])

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("k", [1, 2])
    def test_256x256_slices_keep_64_row_strips(self, monkeypatch, k, cpus):
        # with a worker, every other strip has the second buffer set, as
        # many of its float64 buffers as fit (three at one 256x256 slice,
        # seven at two) held in the iterate buffer
        monkeypatch.setattr(diffusion, "_cpus", lambda: cpus)
        u = np.zeros((k, 256, 256))
        ws = diffusion._Workspace(u if k > 1 else u[0])
        assert len(ws.strips) == 4 * k
        for j, (nb, buf, pieces) in enumerate(ws.strips):
            i, r0 = divmod(j, 4)
            r0 *= 64
            assert pieces == [(slice(i * 256 + r0, i * 256 + r0 + 64), slice(0, 64))]
            assert nb[0].shape == buf[0].shape == (64, 258)
            assert self.first_row(ws.q, nb, 258) == i * 258 + r0
            assert buf is ws.strips[j % cpus][1]
        if cpus == 2:
            main, worker = ws.strips[0][1], ws.strips[1][1]
            assert not any(np.shares_memory(b, c) for b in main for c in worker)
            held = [np.shares_memory(b, ws.it) for b in worker]
            assert held == [True] * {1: 3, 2: 7}[k] + [False] * {1: 6, 2: 2}[k]
