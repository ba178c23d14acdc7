"""Intensity projections, phase masking, and the venous enhancement pipeline."""
import math

import numpy as np
import pytest

from conftest import smooth_field
from mipdiff.diffusion import AdaptiveParams, run_filter
from mipdiff.fileio import iter_slices, read_volume, write_volume
from mipdiff.phantom import default_venous_spec, dip_amplitude, generate
from mipdiff.projection import (
    PhaseMaskParams,
    phase_mask,
    project,
    project_slices,
    swi_pipeline,
)


class TestProject:
    def test_single_slice_identity(self, rng):
        vol = rng.normal(0.0, 1.0, (1, 5, 6))
        np.testing.assert_array_equal(project(vol, "min"), vol[0])
        np.testing.assert_array_equal(project(vol, "max"), vol[0])

    def test_two_pixel_stacks(self):
        # stacks {1, 5, 3} and {-2, 0, 4} across three slices
        vol = np.array([[[1.0, -2.0]], [[5.0, 0.0]], [[3.0, 4.0]]])
        np.testing.assert_array_equal(project(vol, "max"), [[5.0, 4.0]])
        np.testing.assert_array_equal(project(vol, "min"), [[1.0, -2.0]])

    def test_min_max_duality(self, rng):
        vol = rng.normal(0.0, 1.0, (16, 8, 8))
        np.testing.assert_array_equal(project(vol, "max"), -project(-vol, "min"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            project(np.zeros((2, 2, 2)), "median")


class TestFoldedProjection:
    """``project`` and the CLI fold slices one at a time; the result equals
    numpy's whole-volume reduction byte for byte."""

    @staticmethod
    def signed_zero_volume(rng, depth):
        vol = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(depth, 6, 7))
        vol[:, 0, :] = rng.choice([-0.0, 0.0], size=(depth, 7))  # ties of zeros only
        return vol

    @pytest.mark.parametrize("depth", [1, 2, 5, 40])
    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_equals_whole_volume_reduction(self, tmp_path, rng, depth, kind):
        path = tmp_path / "v.vol"
        write_volume(self.signed_zero_volume(rng, depth), path)
        vol = read_volume(path)
        want = getattr(vol, kind)(axis=0)
        for got in (project_slices(iter_slices(path), kind), project(vol, kind)):
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_signed_zero_ties_in_both_orders(self, kind):
        vol = np.array([[[0.0, -0.0]], [[-0.0, 0.0]]])
        want = getattr(vol, kind)(axis=0)
        assert project(vol, kind).tobytes() == want.tobytes()
        assert project(vol[::-1], kind).tobytes() == getattr(vol[::-1], kind)(axis=0).tobytes()

    def test_first_slice_copied_from_reused_buffer(self):
        buf = np.empty((2, 3), dtype=np.float32)

        def slices():
            for value in (3.0, 1.0, 2.0):
                buf.fill(value)
                yield buf

        np.testing.assert_array_equal(project_slices(slices(), "min"), np.ones((2, 3)))
        np.testing.assert_array_equal(project_slices(slices(), "max"), np.full((2, 3), 3.0))

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_float64_slice_after_float32_stream_is_not_rounded(self, kind):
        # float32 slices are folded in float32; a later float64 slice widens
        # the accumulator first, so a value float32 cannot hold comes out exact
        fine = 1.0 + 2.0**-40
        extreme = 2.0 if kind == "min" else 0.0
        slices = [np.full((2, 3), extreme, dtype=np.float32)] * 3 + [np.full((2, 3), fine)]
        got = project_slices(iter(slices), kind)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.full((2, 3), fine))
        assert np.float32(fine) == 1.0  # the float32 fold would have rounded it

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            project_slices([np.zeros((2, 2))], "median")


class TestPhaseMask:
    def test_endpoints(self):
        w = phase_mask(np.array([[0.0, -math.pi]]))
        assert w[0, 0] == 1.0
        assert w[0, 1] == 0.0

    def test_float32_pi_accepted_and_clipped(self):
        # float32(pi), how a MIPVOL file stores pi, lies just above pi: it
        # is accepted and clipped, so an odd exponent gives no weight below 0
        pi32 = float(np.float32(math.pi))
        phi = np.array([[-pi32, -math.pi, math.pi, pi32]])
        for m in (1, 3, 4):
            w = phase_mask(phi, PhaseMaskParams(exponent=m))
            assert w.tolist() == [[0.0, 0.0, 1.0, 1.0]]

    def test_negative_half_pi_fourth_power(self):
        w = phase_mask(np.array([[-math.pi / 2.0]]), PhaseMaskParams(exponent=4))
        assert w[0, 0] == 0.0625

    def test_positive_phase_untouched(self):
        for m in (1, 2, 4, 7):
            w = phase_mask(np.array([[math.pi / 2.0]]), PhaseMaskParams(exponent=m))
            assert w[0, 0] == 1.0

    def test_monotone_in_phase(self):
        phi = np.linspace(-math.pi, math.pi, 400).reshape(1, -1)
        w = phase_mask(phi)
        assert np.all(np.diff(w[0]) >= 0.0)
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="pi"):
            phase_mask(np.array([[3.5]]))
        with pytest.raises(ValueError, match="pi"):
            phase_mask(np.array([[-3.5]]))
        pi32 = float(np.float32(math.pi))
        for beyond in (np.nextafter(pi32, 4.0), -np.nextafter(pi32, 4.0)):
            with pytest.raises(ValueError, match="pi"):
                phase_mask(np.array([[beyond]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            phase_mask(np.array([[np.nan]]))

    def test_exponent_validation(self):
        with pytest.raises(ValueError, match="exponent"):
            PhaseMaskParams(exponent=0)


class TestSwiPipeline:
    def test_degenerate_pipeline_equals_plain_mip(self, rng):
        mag = rng.uniform(0.5, 1.5, (4, 8, 8))
        phase = np.abs(rng.uniform(0.0, 3.0, (4, 8, 8)))
        out = swi_pipeline(mag, phase, AdaptiveParams(alpha=0.0))
        np.testing.assert_array_equal(out, project(mag, "min"))

    def test_all_positive_phase_equals_filtered_mip(self, rng):
        mag = 1.0 + 0.05 * rng.normal(0.0, 1.0, (3, 12, 12))
        phase = np.full((3, 12, 12), 0.5)
        params = AdaptiveParams(alpha=2.0, max_iterations=3, mode="mip_min")
        out = swi_pipeline(mag, phase, params)
        filtered = np.stack([run_filter(sl, params)[0] for sl in mag])
        np.testing.assert_array_equal(out, project(filtered, "min"))

    def test_mask_taken_from_argmin_slice(self):
        # the minimum comes from slice 1; its phase (not slice 0's) must
        # weight the output pixel
        mag = np.ones((2, 4, 4))
        mag[1] = 0.5
        phase = np.zeros((2, 4, 4))
        phase[0] = -math.pi / 2.0  # would give weight 0.0625
        phase[1] = 0.25            # weight 1
        out = swi_pipeline(mag, phase, AdaptiveParams(alpha=0.0))
        np.testing.assert_array_equal(out, np.full((4, 4), 0.5))

    def test_tie_takes_lowest_slice_weight(self):
        # pixel (0, 0) ties between slices 1 and 2, whose phases differ;
        # every other pixel ties across all three slices
        mag = np.ones((3, 2, 2))
        mag[1, 0, 0] = mag[2, 0, 0] = 0.5
        phase = np.stack([np.full((2, 2), p) for p in (-math.pi / 2, -math.pi / 4, -0.5)])
        w = phase_mask(phase)[:, 0, 0]
        assert len(set(w)) == 3
        out = swi_pipeline(mag, phase, AdaptiveParams(alpha=0.0))
        np.testing.assert_array_equal(out, [[0.5 * w[1], w[0]], [w[0], w[0]]])

    def test_weight_from_argmin_slice_of_any_stack(self, tmp_path, rng):
        """Volumes and streamed slices give the whole-volume definition:
        the minimum times the phase weight at numpy's argmin."""
        mag = rng.normal(0.0, 1.0, (7, 6, 5)).astype("<f4").astype(np.float64)
        phase = rng.uniform(-3.0, 3.0, (7, 6, 5)).astype("<f4").astype(np.float64)
        idx = mag.argmin(axis=0)[None]
        want = mag.min(axis=0) * np.take_along_axis(phase_mask(phase), idx, 0)[0]
        mpath, ppath = tmp_path / "m.vol", tmp_path / "p.vol"
        write_volume(mag, mpath)
        write_volume(phase, ppath)
        params = AdaptiveParams(alpha=0.0)
        for got in (swi_pipeline(mag, phase, params),
                    swi_pipeline(iter_slices(mpath), iter_slices(ppath), params)):
            assert got.tobytes() == want.tobytes()

    def test_mask_before_projection_variant(self, rng):
        mag = rng.uniform(0.5, 1.5, (4, 6, 6))
        phase = rng.uniform(-math.pi, math.pi, (4, 6, 6))
        out = swi_pipeline(
            mag, phase, AdaptiveParams(alpha=0.0), mask_before_projection=True
        )
        expected = project(mag * phase_mask(phase), "min")
        np.testing.assert_array_equal(out, expected)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            swi_pipeline(np.ones((2, 4, 4)), np.zeros((3, 4, 4)), AdaptiveParams())
        # slices of unequal depth are caught when the shorter one ends
        with pytest.raises(ValueError):
            swi_pipeline(iter(np.ones((2, 4, 4))), iter(np.zeros((3, 4, 4))), AdaptiveParams())
        # slices of unequal shape are not broadcast
        with pytest.raises(ValueError, match=r"\(8, 8\) and phase slice \(1, 8\) differ"):
            swi_pipeline(iter(np.ones((2, 8, 8))), iter(np.zeros((2, 1, 8))), AdaptiveParams())

    def test_tube_dip_preserved_or_deepened(self):
        # the dip is measured against its local baseline, as in the venous
        # acceptance check: smoothing raises the minimum at every pixel, so
        # one pixel's absolute value says nothing about the vessel
        ph = generate(default_venous_spec(seed=5))
        mask = ph.truth_mask.any(axis=0)
        plain = project(ph.noisy, "min")
        params = AdaptiveParams(alpha=2.0, mode="mip_min", max_iterations=8)
        out = swi_pipeline(ph.noisy, np.zeros_like(ph.noisy), params)
        assert dip_amplitude(out, mask) >= dip_amplitude(plain, mask)
