"""Scalar, orthogonal-split, and adaptive directional diffusion filters."""
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import smooth_field
from mipdiff import diffusion
from mipdiff.diffusion import (
    MIP_MIN_NU,
    AdaptiveParams,
    BoundPair,
    HysteresisParams,
    PMParams,
    adaptive_mu,
    default_delta,
    directional_ad_step,
    directional_step,
    histogram_bounds,
    hysteresis_combine,
    hysteresis_filter,
    pm_diffusivity,
    pm_flux_second_derivative,
    pm_step,
    run_directional_ad,
    run_filter,
    run_orthogonal,
    run_pm,
    orthogonal_step,
)
from mipdiff.fields import _padded, curvature_terms, derivatives, structureness


def adaptive_mu_update(u, params, bounds=None, nu=0.0):
    """sum((nu_i + mu_i) * d_i) over the whole slice, with d_i from the public
    ``derivatives``/``curvature_terms`` and mu_i from ``adaptive_mu``; nu
    weights eta and e2 only, and mip mode has no e1 term. Summed in the
    filter kernel's order, and nu + (-t) is nu - t exactly, so the result
    matches the kernel bit for bit, signed zeros included."""
    d_eta, d_e1, d_e2, c = curvature_terms(derivatives(u))
    dirs = [d_eta, d_e2] if params.mode == "mip" else [d_eta, d_e2, d_e1]
    gates = [bounds] * len(dirs)
    if params.mode == "mip" and bounds is None and u.size >= 100:
        gates = [histogram_bounds(d, params.tail_prob) for d in dirs]
    terms = [
        (n + adaptive_mu(c, d, params.alpha, params.mode, b)) * d
        for n, d, b in zip((nu, nu, 0.0), dirs, gates)
    ]
    return sum(terms[1:], terms[0])


def adaptive_mu_step(u, params, bounds=None, nu=0.0):
    """u + step * adaptive_mu_update(u, params, bounds, nu)."""
    return u + params.step * adaptive_mu_update(u, params, bounds, nu)


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
        diff = float(np.linalg.norm(u_next - u))
        base = float(np.linalg.norm(u))
        rel = 0.0 if diff == 0.0 else (math.inf if base == 0.0 else diff / base)
        changes.append(rel)
        u = u_next
        if rel < params.tolerance:
            break
    return u, changes, update


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
        with pytest.raises(ValueError, match="delta"):
            PMParams(delta=0.0)

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

    def test_run_pm_iterates(self, rng):
        # the run's face buffers give the bits of the public steps, also on
        # fields too small for the derivative stencils
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
        np.testing.assert_array_equal(orthogonal_step(u, PMParams(delta=1.0)), u)

    def test_linear_ramp_interior_unchanged(self):
        u = np.tile(np.arange(8.0), (8, 1))
        out = orthogonal_step(u, PMParams(delta=5.0))
        np.testing.assert_array_equal(out[1:-1, 1:-1], u[1:-1, 1:-1])

    def test_split_matches_divergence_form(self, rng):
        # lam1*D_o + lam2*D_p reproduces div(g grad u) up to the differing
        # discretizations of the two schemes
        worst = 0.0
        for _ in range(10):
            u = smooth_field(rng, (9, 9), passes=4)
            p = PMParams(delta=default_delta(u), dt=0.2)
            split = orthogonal_step(u, p) - u
            divform = pm_step(u, p) - u
            rms = float(np.sqrt(np.mean((split - divform) ** 2)))
            worst = max(worst, rms / (u.max() - u.min()))
        assert worst < 5e-2

    def test_run_orthogonal_iterates(self, rng):
        u = smooth_field(rng, (10, 10))
        p = PMParams(delta=1.0, iterations=3)
        step = orthogonal_step(orthogonal_step(orthogonal_step(u, p), p), p)
        np.testing.assert_array_equal(run_orthogonal(u, p), step)
        # the run's one padded buffer gives the bits of the public steps
        for shape in RUN_SHAPES:
            u = rng.normal(1.0, 0.1, shape)
            for kind in ("rational", "exponential"):
                p = PMParams(delta=0.05, iterations=4, diffusivity_kind=kind)
                manual = u
                for _ in range(p.iterations):
                    manual = orthogonal_step(manual, p)
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
        "mode, shape, bounds",
        [
            ("mip_min", (16, 16), None),
            ("mip", (16, 16), None),  # histogram-derived bounds
            ("mip", (8, 8), None),  # under 100 pixels: ungated
            ("mip", (16, 16), BoundPair(-0.1, 0.1)),
        ],
        ids=["mip_min", "mip_auto_bounds", "mip_ungated", "mip_explicit_bounds"],
    )
    def test_is_the_adaptive_mu_sum(self, rng, mode, shape, bounds):
        u = rng.normal(1.0, 0.2, shape)
        params = AdaptiveParams(alpha=4.0, step=0.15, mode=mode)
        got = directional_step(u, params, bounds=bounds)
        np.testing.assert_array_equal(got, adaptive_mu_step(u, params, bounds))

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

    def test_matches_scalar_oracle_mip_explicit_bounds(self, rng):
        u = rng.normal(1.0, 0.2, (8, 8))
        b = BoundPair(-0.1, 0.1)
        params = AdaptiveParams(alpha=4.0, step=0.15, mode="mip")
        got = directional_step(u, params, bounds=b)
        want = oracles.directional_step(
            oracles.grid(u), 4.0, "mip", 0.15, bounds=(-0.1, 0.1)
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

    def test_trace_csv_format(self, rng, tmp_path):
        u = smooth_field(rng, (10, 10), offset=1.0, scale=0.1)
        _, trace = run_filter(u, AdaptiveParams(alpha=2.0, max_iterations=3))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,relative_change"
        assert lines[1].startswith("1,")
        assert len(lines) == trace.iterations + 1


# Strip heights at _STRIP_PIXELS = 8192: 128 rows at width 64 (300 = 2 * 128
# + 44), 81 at width 100 (250 = 3 * 81 + 7), one row above 8192 columns.
STRIP_SHAPES = {
    "300x64": (300, 64),
    "250x100": (250, 100),
    "3x40": (3, 40),
    "3x8300": (3, 8300),
    "7x8300": (7, 8300),
}


class TestStripBlocking:
    """The strip-blocked kernel equals a whole-slice evaluation from the
    public derivatives and curvature_terms, bit for bit."""

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
        strips = diffusion._workspace(_padded(u), np.empty_like(u))
        for buf in strips[0][2][:12]:
            buf.fill(stale)
        for s, nb, buf in strips:
            got = diffusion._curvature_strip(nb, buf)
            for g, w in zip(got, want):
                assert_same_bits(g[:, 1:-1].copy(), w[s])

    def test_kernel_memory(self, rng):
        # the loop's three slices, the padded field, the update and the
        # strip buffers trace about 6.6 slices; a kernel allocating every
        # strip temporary afresh traces 7.5
        u = rng.normal(1.0, 0.1, (256, 256))
        tracemalloc.start()
        try:
            run_filter(u, AdaptiveParams(mode="mip_min"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * u.nbytes

    def test_ungated_mip_below_100_pixels(self, monkeypatch, rng):
        monkeypatch.setattr(diffusion, "_STRIP_PIXELS", 20)  # 2-row strips
        u = rng.normal(1.0, 0.1, (9, 10))
        self.check(u, AdaptiveParams(alpha=2.0, mode="mip", max_iterations=3))

    @pytest.mark.parametrize("mode", ["mip_min", "mip"])
    def test_explicit_bounds(self, rng, mode):
        u = rng.normal(1.0, 0.1, STRIP_SHAPES["300x64"])
        params = AdaptiveParams(alpha=2.0, mode=mode)
        b = BoundPair(-0.05, 0.05)
        assert_same_bits(directional_step(u, params, b), adaptive_mu_step(u, params, b))

    def test_oracles_on_field_taller_than_one_strip(self, rng):
        # width 700: strips of 11 and 6 rows
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
    def test_infinite_threshold_selects_low(self, rng):
        low = rng.normal(0.0, 1.0, (6, 6))
        high = rng.normal(0.0, 1.0, (6, 6))
        c = np.abs(rng.normal(0.0, 1.0, (6, 6)))
        out = hysteresis_combine(low, high, c, HysteresisParams(c_threshold=math.inf))
        np.testing.assert_array_equal(out, low)

    def test_zero_threshold_selects_high(self, rng):
        low = rng.normal(0.0, 1.0, (6, 6))
        high = rng.normal(0.0, 1.0, (6, 6))
        c = np.full((6, 6), 0.5)
        out = hysteresis_combine(low, high, c, HysteresisParams(c_threshold=0.0))
        np.testing.assert_array_equal(out, high)

    def test_checkerboard_selection_matches_mask(self):
        low = np.zeros((4, 4))
        high = np.ones((4, 4))
        c = np.indices((4, 4)).sum(axis=0) % 2 * 2.0  # 0 / 2 checkerboard
        out = hysteresis_combine(low, high, c, HysteresisParams(c_threshold=1.0))
        np.testing.assert_array_equal(out, (c > 1.0).astype(np.float64))

    def test_unresolved_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            hysteresis_combine(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)),
                               HysteresisParams())

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
        out = directional_ad_step(u, PMParams(delta=1.0), grad_threshold=0.5)
        np.testing.assert_array_equal(out, u)

    def test_e1_term_suppressed_across_edges(self):
        # a hard step edge: pixels with gradient above the switch see only
        # the eta and e2 terms
        u = np.zeros((9, 9))
        u[:, 5:] = 1.0
        p = PMParams(delta=0.2)
        full = directional_ad_step(u, p, grad_threshold=math.inf)
        cut = directional_ad_step(u, p, grad_threshold=0.25)
        assert not np.array_equal(full, cut)

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
        u = smooth_field(rng, (14, 14))
        p = PMParams(delta=1.0, iterations=3)
        b = derivatives(u)
        thr = float(np.quantile(np.sqrt(b.ux**2 + b.uy**2), 0.9))
        manual = u
        for _ in range(3):
            manual = directional_ad_step(manual, p, thr)
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
                        manual = directional_ad_step(manual, p, thr)
                    assert_same_bits(run_directional_ad(u, p, given), manual)


class TestStructurenessIntegration:
    def test_reference_structureness_nonnegative(self, rng):
        u = smooth_field(rng, (10, 10))
        c = structureness(derivatives(u))
        assert np.all(c >= 0.0)


class TestEigenvectorFreeHotPath:
    """The filters take their curvatures from curvature_terms alone."""

    @pytest.fixture
    def no_eigenvectors(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("eigenvector routine called on the hot path")

        names = ("hessian_eigen", "diffusion_basis", "directional_second_derivative")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mipdiff" or mod_name.startswith("mipdiff."):
                for name in names:
                    if hasattr(mod, name):
                        monkeypatch.setattr(mod, name, boom)

    def test_filters_run_without_eigenvectors(self, no_eigenvectors, rng):
        u = smooth_field(rng, (24, 24), offset=1.0, scale=0.1)
        for mode in ("mip", "mip_min"):
            out, _ = run_filter(u, AdaptiveParams(mode=mode, max_iterations=2))
            assert np.all(np.isfinite(out))
            assert np.all(np.isfinite(directional_step(u, AdaptiveParams(mode=mode))))
        p = PMParams(delta=0.05)
        assert np.all(np.isfinite(directional_ad_step(u, p, grad_threshold=0.01)))
        assert np.all(np.isfinite(orthogonal_step(u, p)))

    def test_run_loops_read_the_padded_stencil(self, monkeypatch, rng):
        from mipdiff import fields

        def boom(*args, **kwargs):
            raise AssertionError("derivative maps copied out on the hot path")

        monkeypatch.setattr(fields, "_bundle", boom)
        monkeypatch.setattr(diffusion, "_bundle", boom)
        u = smooth_field(rng, (24, 24), offset=1.0, scale=0.1)
        p = PMParams(delta=0.05, iterations=3)
        assert np.all(np.isfinite(run_orthogonal(u, p)))
        assert np.all(np.isfinite(run_directional_ad(u, p)))
        assert np.all(np.isfinite(run_directional_ad(u, p, 0.01)))

    def test_orthogonal_step_keeps_zero_gradient_pixels(self, no_eigenvectors):
        # paraboloid: zero gradient but non-zero Hessian at its centre
        y, x = np.mgrid[0:11, 0:11].astype(np.float64)
        u = 1.0 + 0.01 * ((x - 5.0) ** 2 + (y - 5.0) ** 2)
        b = derivatives(u)
        still = (b.ux == 0.0) & (b.uy == 0.0)
        assert still[5, 5] and b.uxx[5, 5] != 0.0
        out = orthogonal_step(u, PMParams(delta=0.05))
        np.testing.assert_array_equal(out[still], u[still])
        assert np.any(out[~still] != u[~still])

    @pytest.fixture
    def no_whole_slice_stencil(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("whole-slice derivatives or np.pad called on the hot path")

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mipdiff" or mod_name.startswith("mipdiff."):
                if hasattr(mod, "derivatives"):
                    monkeypatch.setattr(mod, "derivatives", boom)
        monkeypatch.setattr(np, "pad", boom)

    def test_filters_run_without_derivatives_or_pad(self, no_whole_slice_stencil, rng):
        u = rng.normal(1.0, 0.1, (40, 300))  # 27-row strips
        for mode in ("mip", "mip_min"):
            out, _ = run_filter(u, AdaptiveParams(mode=mode))
            assert np.all(np.isfinite(out))
            assert np.all(np.isfinite(directional_step(u, AdaptiveParams(mode=mode))))
            combined, _, _ = hysteresis_filter(u, AdaptiveParams(mode=mode), HysteresisParams())
            assert np.all(np.isfinite(combined))
        p = PMParams(delta=0.05, iterations=2)
        assert np.all(np.isfinite(orthogonal_step(u, p)))
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
        for step in (orthogonal_step, lambda v, q: directional_ad_step(v, q, 0.01)):
            as_field_calls.clear()
            step(u, p)
            assert len(as_field_calls) == 1
        for run in (run_pm, run_orthogonal, run_directional_ad):
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
        # the stencil overflows on the first iteration; the next one refuses
        # the non-finite field, as a non-finite input is refused
        u = 1e308 * rng.uniform(-1.0, 1.0, (8, 8))
        with np.errstate(all="ignore"):
            out, _ = run_filter(u, AdaptiveParams(alpha=2.0, max_iterations=1))
            assert not np.all(np.isfinite(out))
            with pytest.raises(ValueError, match="NaN or Inf"):
                run_filter(u, AdaptiveParams(alpha=2.0, max_iterations=2))
            # scalar diffusion lets large differences be, but one that
            # overflows gives its face a NaN flux
            checker = 1e308 * (-1.0) ** np.add.outer(np.arange(8), np.arange(8))
            for run, v in ((run_pm, checker), (run_orthogonal, u), (run_directional_ad, u)):
                out = run(v, PMParams(delta=1.0, iterations=1))
                assert not np.all(np.isfinite(out))
                with pytest.raises(ValueError, match="NaN or Inf"):
                    run(v, PMParams(delta=1.0, iterations=2))
