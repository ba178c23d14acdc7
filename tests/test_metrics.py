"""PSNR variants, Michelson contrast, and neighbourhood contrast per pixel."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mipdiff.metrics import (
    Roi,
    contrast_per_pixel,
    contrast_ratio,
    psnr_vs_input,
    psnr_vs_reference,
)


class TestRoi:
    def test_crop(self):
        u = np.arange(20.0).reshape(4, 5)
        got = Roi(1, 2, 3, 2).crop(u)
        np.testing.assert_array_equal(got, u[2:4, 1:4])

    def test_rejects_negative_origin(self):
        with pytest.raises(ValueError):
            Roi(-1, 0, 2, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Roi(0, 0, 0, 2)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            Roi(3, 0, 3, 2).crop(np.zeros((4, 5)))


class TestPsnr:
    def test_identical_gives_sentinel(self, rng):
        u = rng.normal(0.0, 1.0, (6, 6))
        assert psnr_vs_input(u, u.copy()) == math.inf
        assert psnr_vs_reference(u, u.copy()) == math.inf

    def test_twenty_db_example(self):
        base = np.zeros((5, 5))
        base[0, 0] = 1.0  # peak 1
        test = base + 0.1  # mse 0.01
        assert abs(psnr_vs_input(base, test) - 20.0) < 1e-12

    def test_reference_twenty_db_example(self):
        ref = np.zeros((4, 4))
        ref[0, 0] = 2.0  # peak 2
        test = ref + 0.2  # mse 0.04 -> 10*log10(4/0.04) = 20
        assert abs(psnr_vs_reference(ref, test) - 20.0) < 1e-12

    def test_zero_peak_tends_negative_infinity(self):
        base = np.zeros((3, 3))
        test = np.full((3, 3), 0.5)
        assert psnr_vs_input(base, test) == -math.inf

    def test_matches_scalar_oracle(self, rng):
        for _ in range(30):
            base = rng.uniform(0.1, 2.0, (5, 5))
            test = base + rng.normal(0.0, 0.1, (5, 5))
            got = psnr_vs_input(base, test)
            want = oracles.psnr(oracles.grid(base), oracles.grid(base), oracles.grid(test))
            assert abs(got - want) < 1e-12

    def test_reference_matches_scalar_oracle(self, rng):
        ref = rng.uniform(0.1, 2.0, (7, 7))
        test = ref + rng.normal(0.0, 0.05, (7, 7))
        got = psnr_vs_reference(ref, test)
        want = oracles.psnr(oracles.grid(ref), oracles.grid(ref), oracles.grid(test))
        assert abs(got - want) < 1e-12

    def test_roi_restricts_evaluation(self, rng):
        base = rng.uniform(0.5, 1.0, (8, 8))
        test = base.copy()
        test[0, 0] = 99.0  # outside the ROI below
        roi = Roi(2, 2, 4, 4)
        assert psnr_vs_input(base, test, roi) == math.inf

    def test_peak_comes_from_input_not_test(self, rng):
        base = np.full((4, 4), 1.0)
        test = np.full((4, 4), 3.0)
        # mse 4, peak from input = 1 -> 10*log10(1/4)
        want = 10.0 * math.log10(1.0 / 4.0)
        assert abs(psnr_vs_input(base, test) - want) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            psnr_vs_input(np.zeros((2, 2)), np.zeros((3, 3)))


class TestContrastRatio:
    def test_constant_is_zero(self):
        assert contrast_ratio(np.full((4, 4), 5.0)) == 0.0

    def test_basic_example(self):
        u = np.array([[1.0, 3.0], [2.0, 2.0]])
        assert contrast_ratio(u) == 0.5

    def test_zero_denominator_raises(self):
        u = np.array([[-1.0, 1.0]])
        with pytest.raises(ValueError, match="zero"):
            contrast_ratio(u)

    def test_matches_scalar_oracle(self, rng):
        u = rng.uniform(0.5, 2.0, (6, 6))
        assert contrast_ratio(u) == oracles.contrast_ratio(oracles.grid(u))

    def test_roi(self):
        u = np.array([[0.0, 9.0], [1.0, 3.0]])
        assert contrast_ratio(u, Roi(0, 1, 2, 1)) == 0.5


class TestContrastPerPixel:
    def test_constant_is_zero(self):
        assert contrast_per_pixel(np.full((5, 5), 2.0)) == 0.0

    def test_two_by_two_example(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert contrast_per_pixel(u) == 2.0

    def test_checkerboard_matches_exhaustive_oracle(self):
        u = np.indices((4, 4)).sum(axis=0) % 2.0
        got = contrast_per_pixel(u)
        want = oracles.contrast_per_pixel(oracles.grid(u))
        assert abs(got - want) < 1e-12

    def test_random_matches_oracle(self, rng):
        for _ in range(10):
            ny, nx = rng.integers(2, 8, size=2)
            u = rng.normal(0.0, 1.0, (ny, nx))
            got = contrast_per_pixel(u)
            want = oracles.contrast_per_pixel(oracles.grid(u))
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("shape", [(2, 2), (3, 7), (300, 5), (512, 512)])
    def test_bit_identical_to_fresh_difference_arrays(self, rng, shape):
        # the reused buffer must keep numpy's summation order of each shift
        u = rng.normal(0.0, 1.0, shape)
        ny, nx = shape
        want = 0.0
        for dy, dx in [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]:
            a = u[max(0, dy):ny + min(0, dy), max(0, dx):nx + min(0, dx)]
            b = u[max(0, -dy):ny + min(0, -dy), max(0, -dx):nx + min(0, -dx)]
            want += float(np.abs(a - b).sum())
        assert contrast_per_pixel(u) == want / (nx * ny)

    def test_needs_two_by_two(self):
        with pytest.raises(ValueError):
            contrast_per_pixel(np.zeros((1, 5)))

    @given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_and_translation(self, gain, shift):
        u = np.arange(12.0).reshape(3, 4)
        base = contrast_per_pixel(u)
        assert abs(contrast_per_pixel(gain * u) - gain * base) < 1e-9 * max(gain, 1.0)
        assert abs(contrast_per_pixel(u + shift) - base) < 1e-9
