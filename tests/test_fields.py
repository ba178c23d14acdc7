"""Derivative stencils, Hessian eigenframes, and the directional basis."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import smooth_field
from mipdiff.fields import (
    DerivativeBundle,
    as_field,
    as_volume,
    curvature_terms,
    derivatives,
    directional_second_derivative,
    hessian_eigen,
    structureness,
)


def bundle_from_hessian(a, b, c):
    """Wrap constant Hessian entries into a bundle for eigen tests."""
    shape = (3, 3)
    z = np.zeros(shape)
    return DerivativeBundle(
        ux=z, uy=z, uxx=np.full(shape, float(a)), uyy=np.full(shape, float(c)),
        uxy=np.full(shape, float(b)),
    )


class TestValidation:
    def test_as_field_accepts_lists(self):
        f = as_field([[1, 2], [3, 4]])
        assert f.dtype == np.float64 and f.shape == (2, 2)

    def test_as_field_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            as_field([[np.nan, 0.0], [0.0, 0.0]])

    def test_as_field_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            as_field(np.zeros(5))

    def test_as_volume_rejects_2d(self):
        with pytest.raises(ValueError):
            as_volume(np.zeros((4, 4)))

    def test_derivatives_need_3x3(self):
        with pytest.raises(ValueError, match="3x3"):
            derivatives(np.zeros((2, 5)))


class TestDerivatives:
    def test_constant_field_all_zero(self):
        b = derivatives(np.full((6, 7), 7.0))
        for arr in (b.ux, b.uy, b.uxx, b.uyy, b.uxy):
            assert np.all(arr == 0.0)

    def test_linear_ramp_interior(self):
        x = np.arange(5.0)
        u = np.tile(x, (5, 1))
        b = derivatives(u)
        assert np.all(b.ux[:, 1:-1] == 1.0)
        assert np.all(b.uxx[:, 1:-1] == 0.0)
        assert np.all(b.uy == 0.0)

    def test_quadratic_second_derivative_exact(self):
        x = np.arange(7.0)
        u = np.tile(x * x, (7, 1))
        b = derivatives(u)
        assert np.all(b.uxx[:, 1:-1] == 2.0)

    def test_mirror_border_first_derivative_vanishes(self):
        # u(-1) = u(1) makes the central difference zero at the border
        u = np.tile(np.arange(6.0) ** 2, (4, 1))
        b = derivatives(u)
        assert np.all(b.ux[:, 0] == 0.0)

    def test_matches_scalar_oracle(self, rng):
        for _ in range(20):
            ny, nx = rng.integers(3, 13, size=2)
            u = rng.normal(0.0, 2.0, (ny, nx))
            got = derivatives(u)
            want = oracles.derivative_bundle(oracles.grid(u))
            for name in ("ux", "uy", "uxx", "uyy", "uxy"):
                np.testing.assert_allclose(
                    getattr(got, name), np.array(want[name]), rtol=0, atol=1e-14
                )


class TestHessianEigen:
    def test_diagonal_example(self):
        lam_max, lam_min, e1x, e1y, e2x, e2y = hessian_eigen(bundle_from_hessian(2, 0, 0))
        assert np.all(lam_max == 2.0) and np.all(lam_min == 0.0)
        assert np.all(e1x == 1.0) and np.all(e1y == 0.0)
        assert np.all(e2x == 0.0) and np.all(e2y == 1.0)

    def test_swap_example(self):
        lam_max, lam_min, e1x, e1y, e2x, e2y = hessian_eigen(bundle_from_hessian(0, 1, 0))
        r = 1.0 / np.sqrt(2.0)
        assert np.all(lam_max == 1.0) and np.all(lam_min == -1.0)
        np.testing.assert_allclose(e1x, r, atol=1e-15)
        np.testing.assert_allclose(e1y, r, atol=1e-15)
        np.testing.assert_allclose(e2x, r, atol=1e-15)
        np.testing.assert_allclose(e2y, -r, atol=1e-15)

    def test_zero_hessian_gives_zero_directions(self):
        _, _, e1x, e1y, e2x, e2y = hessian_eigen(bundle_from_hessian(0, 0, 0))
        for arr in (e1x, e1y, e2x, e2y):
            assert np.all(arr == 0.0)

    def test_isotropic_tie_gives_axes(self):
        _, _, e1x, e1y, e2x, e2y = hessian_eigen(bundle_from_hessian(3, 0, 3))
        assert np.all(e1x == 1.0) and np.all(e1y == 0.0)
        assert np.all(e2x == 0.0) and np.all(e2y == 1.0)

    def test_reconstruction_on_random_matrices(self, rng):
        entries = rng.normal(0.0, 3.0, (1000, 3))
        shape = (1, 1000)
        bundle = DerivativeBundle(
            ux=np.zeros(shape), uy=np.zeros(shape),
            uxx=entries[:, 0].reshape(shape),
            uxy=entries[:, 1].reshape(shape),
            uyy=entries[:, 2].reshape(shape),
        )
        lam_max, lam_min, e1x, e1y, e2x, e2y = hessian_eigen(bundle)
        # reassemble H = lam1 e1 e1^T + lam2 e2 e2^T entrywise
        h_xx = lam_max * e1x * e1x + lam_min * e2x * e2x
        h_xy = lam_max * e1x * e1y + lam_min * e2x * e2y
        h_yy = lam_max * e1y * e1y + lam_min * e2y * e2y
        np.testing.assert_allclose(h_xx, bundle.uxx, rtol=0, atol=1e-10)
        np.testing.assert_allclose(h_xy, bundle.uxy, rtol=0, atol=1e-10)
        np.testing.assert_allclose(h_yy, bundle.uyy, rtol=0, atol=1e-10)
        assert np.all(lam_max >= lam_min)

    def test_eigenvectors_orthonormal(self, rng):
        u = smooth_field(rng, (16, 16))
        _, _, e1x, e1y, e2x, e2y = hessian_eigen(derivatives(u))
        n1 = e1x * e1x + e1y * e1y
        n2 = e2x * e2x + e2y * e2y
        dot = e1x * e2x + e1y * e2y
        nonzero = n1 > 0
        np.testing.assert_allclose(n1[nonzero], 1.0, atol=1e-14)
        np.testing.assert_allclose(n2[nonzero], 1.0, atol=1e-14)
        np.testing.assert_allclose(dot, 0.0, atol=1e-14)

    def test_sign_convention_dominant_component_nonnegative(self, rng):
        u = smooth_field(rng, (20, 20))
        _, _, e1x, e1y, e2x, e2y = hessian_eigen(derivatives(u))
        for vx, vy in ((e1x, e1y), (e2x, e2y)):
            dominant = np.where(np.abs(vx) >= np.abs(vy), vx, vy)
            assert np.all(dominant >= 0.0)

    def test_scalar_oracle_agreement(self, rng):
        entries = rng.normal(0.0, 2.0, (200, 3))
        shape = (1, 200)
        bundle = DerivativeBundle(
            ux=np.zeros(shape), uy=np.zeros(shape),
            uxx=entries[:, 0].reshape(shape),
            uxy=entries[:, 1].reshape(shape),
            uyy=entries[:, 2].reshape(shape),
        )
        lam_max, lam_min, *_ = hessian_eigen(bundle)
        for i, (a, b, c) in enumerate(entries):
            w_max, w_min, _, _ = oracles.eigen_pixel(a, b, c)
            assert abs(lam_max[0, i] - w_max) < 1e-12
            assert abs(lam_min[0, i] - w_min) < 1e-12


class TestDirectionalSecondDerivative:
    def test_axis_direction_returns_uxx(self, rng):
        u = smooth_field(rng, (9, 9))
        b = derivatives(u)
        np.testing.assert_array_equal(
            directional_second_derivative(b, (1.0, 0.0)), b.uxx
        )

    def test_zero_direction_returns_zero(self, rng):
        u = smooth_field(rng, (9, 9))
        b = derivatives(u)
        assert np.all(directional_second_derivative(b, (0.0, 0.0)) == 0.0)

    def test_diagonal_on_quadratic(self):
        x = np.arange(9.0)
        u = np.tile(x * x, (9, 1))
        b = derivatives(u)
        r = 1.0 / np.sqrt(2.0)
        d = directional_second_derivative(b, (r, r))
        np.testing.assert_allclose(d[:, 1:-1], 1.0, atol=1e-14)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_sign_invariance(self, vx, vy):
        u = np.arange(25.0).reshape(5, 5) ** 1.5
        b = derivatives(u)
        d_pos = directional_second_derivative(b, (vx, vy))
        d_neg = directional_second_derivative(b, (-vx, -vy))
        np.testing.assert_array_equal(d_pos, d_neg)


class TestStructureness:
    def test_constant_is_zero(self):
        assert np.all(structureness(derivatives(np.full((5, 5), 3.0))) == 0.0)

    def test_paraboloid_value(self):
        y, x = np.mgrid[0:9, 0:9].astype(np.float64)
        u = x * x + y * y
        c = structureness(derivatives(u))
        np.testing.assert_allclose(c[1:-1, 1:-1], 2.0 * np.sqrt(2.0), atol=1e-13)

    def test_tube_slice_peaks_near_wall(self):
        # dark Gaussian tube along x centred at row 16: structureness is
        # strongest within a couple of pixels of the tube wall
        y = np.arange(33.0)
        profile = 1.0 - 0.4 * np.exp(-((y - 16.0) ** 2) / (2.0 * 1.5**2))
        u = np.tile(profile[:, None], (1, 33))
        c = structureness(derivatives(u))
        peak_rows = np.unique(np.argmax(c, axis=0))
        assert all(abs(int(r) - 16) <= 3 for r in peak_rows)


class TestCurvatureTerms:
    @staticmethod
    def check_against_oracle(u):
        got = curvature_terms(derivatives(u))
        want = oracles.directional_basis(oracles.grid(u))
        # oracle order is (d_eta, d_e1, d_e2, c); d_e1/d_e2 are lam_max/lam_min
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, np.array(w), rtol=0, atol=1e-12)
        return got

    def test_matches_scalar_oracle_on_smooth_and_noisy_fields(self, rng):
        for _ in range(5):
            ny, nx = rng.integers(3, 17, size=2)
            self.check_against_oracle(smooth_field(rng, (ny, nx), scale=2.0))
            self.check_against_oracle(rng.normal(1.0, 0.2, (ny, nx)))

    def test_degenerate_pixels_match_scalar_oracle(self, rng):
        # a flat block (zero Hessian, zero gradient), a paraboloid
        # (isotropic Hessian, zero gradient at its centre) and noise
        y, x = np.mgrid[0:15, 0:15].astype(np.float64)
        u = 0.05 * ((x - 10.0) ** 2 + (y - 7.0) ** 2)
        u[:, :4] = 1.0
        u[:, 13:] += rng.normal(0.0, 0.1, (15, 2))
        d_eta, lam_max, lam_min, c = self.check_against_oracle(u)
        assert d_eta[7, 10] == 0.0 and lam_max[7, 10] == lam_min[7, 10] > 0.0
        assert np.all(lam_max[:, :3] == 0.0) and np.all(c[:, :3] == 0.0)

    def test_eigenvalues_are_hessian_eigen(self, rng):
        b = derivatives(smooth_field(rng, (20, 24), scale=3.0))
        _, lam_max, lam_min, c = curvature_terms(b)
        want_max, want_min, *_ = hessian_eigen(b)
        np.testing.assert_array_equal(lam_max, want_max)
        np.testing.assert_array_equal(lam_min, want_min)
        np.testing.assert_array_equal(c, structureness(b))

    def test_zero_hessian_is_all_zero(self):
        for arr in curvature_terms(bundle_from_hessian(0, 0, 0)):
            assert np.all(arr == 0.0)

    def test_isotropic_hessian(self):
        d_eta, lam_max, lam_min, c = curvature_terms(bundle_from_hessian(3, 0, 3))
        assert np.all(lam_max == 3.0) and np.all(lam_min == 3.0)
        np.testing.assert_allclose(c, np.sqrt(18.0), rtol=0, atol=1e-15)
        # no gradient anywhere in the bundle: d_eta is defined as zero
        assert np.all(d_eta == 0.0)

