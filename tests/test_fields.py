"""Derivative stencils, structureness, and the whole-slice curvature terms."""
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import mipdiff
import oracles
from conftest import smooth_field
from mipdiff.fields import as_field, as_volume
from references import DerivativeBundle, curvature_terms, derivatives, structureness


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


def bundle_from_entries(entries):
    """Wrap rows (a, b, c) of Hessian entries into a one-row bundle with no
    gradient."""
    shape = (1, len(entries))
    z = np.zeros(shape)
    a, b, c = (np.asarray(col, dtype=np.float64).reshape(shape) for col in entries.T)
    return DerivativeBundle(ux=z, uy=z, uxx=a, uyy=c, uxy=b)


class TestEigenvalues:
    """The Hessian eigenvalues of curvature_terms, the second derivatives
    along the principal curvature directions."""

    def test_diagonal_example(self):
        _, lam_max, lam_min, _ = curvature_terms(bundle_from_hessian(2, 0, 0))
        assert np.all(lam_max == 2.0) and np.all(lam_min == 0.0)

    def test_swap_example(self):
        _, lam_max, lam_min, _ = curvature_terms(bundle_from_hessian(0, 1, 0))
        assert np.all(lam_max == 1.0) and np.all(lam_min == -1.0)

    def test_ordering_on_random_matrices(self, rng):
        entries = rng.normal(0.0, 3.0, (1000, 3))
        _, lam_max, lam_min, _ = curvature_terms(bundle_from_entries(entries))
        assert np.all(lam_max >= lam_min)

    def test_scalar_oracle_agreement(self, rng):
        entries = rng.normal(0.0, 2.0, (200, 3))
        _, lam_max, lam_min, _ = curvature_terms(bundle_from_entries(entries))
        for i, (a, b, c) in enumerate(entries):
            w_max, w_min, _, _ = oracles.eigen_pixel(a, b, c)
            assert abs(lam_max[0, i] - w_max) < 1e-12
            assert abs(lam_min[0, i] - w_min) < 1e-12


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

    def test_eigenvalues_match_eigvalsh_and_c_is_structureness(self, rng):
        b = derivatives(smooth_field(rng, (20, 24), scale=3.0))
        _, lam_max, lam_min, c = curvature_terms(b)
        hessians = np.stack([b.uxx, b.uxy, b.uxy, b.uyy], axis=-1).reshape(20, 24, 2, 2)
        want = np.linalg.eigvalsh(hessians)
        np.testing.assert_allclose(lam_max, want[..., 1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(lam_min, want[..., 0], rtol=0, atol=1e-12)
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


def test_package_exports_every_module_public_name():
    # the command-line modules' names are the entry point, not the library
    modules = [importlib.import_module(f"mipdiff.{m.name}")
               for m in pkgutil.iter_modules(mipdiff.__path__)
               if m.name not in ("cli", "__main__")]
    exported = {name for module in modules for name in module.__all__}
    top = {name for name, value in vars(mipdiff).items()
           if not name.startswith("_") and not inspect.ismodule(value)}
    assert top == exported
