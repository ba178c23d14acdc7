"""Synthetic tube phantom generation and the dip-amplitude statistic."""
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from mipdiff.phantom import (
    ChannelSpec,
    PhantomSpec,
    TubeSpec,
    default_venous_spec,
    dip_amplitude,
    generate,
    generate_flow,
)


class TestSpecs:
    def test_tube_needs_two_points(self):
        with pytest.raises(ValueError, match="two"):
            TubeSpec(points=((0.0, 0.0, 0.0),))

    def test_tube_rejects_zero_contrast(self):
        with pytest.raises(ValueError, match="contrast"):
            TubeSpec(points=((0, 0, 0), (1, 0, 0)), contrast=0.0)

    def test_control_points_must_be_inside(self):
        tube = TubeSpec(points=((0.0, 0.0, 0.0), (99.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="outside"):
            PhantomSpec(width=32, height=32, depth=8, tubes=(tube,))

    def test_amplitude_range(self):
        with pytest.raises(ValueError, match="amplitude"):
            PhantomSpec(baseline_amplitude=1.5)


class TestGenerate:
    def test_zero_noise_copies_clean(self):
        spec = PhantomSpec(width=16, height=16, depth=4, noise_sigma=0.0)
        out = generate(spec)
        np.testing.assert_array_equal(out.noisy, out.clean)
        assert out.noisy is not out.clean

    def test_deterministic_per_seed(self):
        spec = default_venous_spec(seed=9)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.clean, b.clean)
        np.testing.assert_array_equal(a.noisy, b.noisy)

    def test_seed_changes_noise(self):
        a = generate(default_venous_spec(seed=1))
        b = generate(default_venous_spec(seed=2))
        assert not np.array_equal(a.noisy, b.noisy)

    def test_empty_scene_is_unit_constant(self):
        spec = PhantomSpec(width=16, height=16, depth=2, noise_sigma=0.0,
                           baseline_amplitude=0.0)
        out = generate(spec)
        assert np.all(out.clean == 1.0)

    def test_noise_std_near_sigma(self):
        out = generate(default_venous_spec())
        resid = out.noisy - out.clean
        assert resid.size >= 100_000
        assert abs(resid.std(ddof=1) - 0.05) < 0.05 * 0.05

    def test_noise_stream_independent_of_baseline_amplitude(self):
        # baseline parameters are drawn either way, so the noise draw
        # stays aligned
        flat = generate(PhantomSpec(width=16, height=16, depth=4, seed=3,
                                    baseline_amplitude=0.0))
        bent = generate(PhantomSpec(width=16, height=16, depth=4, seed=3,
                                    baseline_amplitude=0.3))
        # identical draws; add-then-subtract against different baselines
        # leaves 1-ulp rounding residue
        np.testing.assert_allclose(flat.noisy - flat.clean,
                                   bent.noisy - bent.clean, rtol=0, atol=5e-16)

    def test_tube_darkens_axis(self):
        out = generate(default_venous_spec())
        # tube runs along x at y=32, z=16 with contrast -0.2
        np.testing.assert_allclose(out.clean[16, 32, :], 0.8, atol=1e-12)
        assert np.all(out.clean[16, 32, :] < out.clean[16, 10, :])

    def test_mask_marks_radius(self):
        out = generate(default_venous_spec())
        assert np.all(out.truth_mask[16, 32, :] == 1.0)
        assert np.all(out.truth_mask[16, 30, :] == 1.0)  # distance 2 = radius
        assert np.all(out.truth_mask[16, 29, :] == 0.0)
        assert np.all(out.truth_mask[0, 0, :] == 0.0)

    def test_metadata_records_geometry(self):
        out = generate(default_venous_spec(seed=7))
        md = out.metadata
        assert md["seed"] == 7
        assert (md["width"], md["height"], md["depth"]) == (64, 64, 32)
        assert md["tubes"] == 1

    def test_channels_are_sensitivity_scaled(self):
        spec = PhantomSpec(width=24, height=24, depth=4, noise_sigma=0.0,
                           channels=ChannelSpec(sigmas=(0.0, 0.0)))
        out = generate(spec)
        assert len(out.channels) == 2
        for ch in out.channels:
            ratio = ch / out.clean
            assert ratio.min() >= 0.25 - 1e-12  # sensitivity floor
            assert ratio.max() <= 1.0 + 1e-12


ORACLE_SPECS = {
    "bent_tube_with_baseline": PhantomSpec(
        width=29, height=23, depth=9, baseline_amplitude=0.3, seed=41,
        tubes=(TubeSpec(points=((0.0, 4.0, 1.0), (10.5, 18.0, 4.0),
                                (20.0, 6.5, 7.5), (28.0, 20.0, 2.0)),
                        radius=2.5, contrast=-0.3),),
    ),
    "zero_length_segment": PhantomSpec(
        width=17, height=19, depth=6, seed=42,
        tubes=(TubeSpec(points=((3.0, 5.0, 2.0), (3.0, 5.0, 2.0),
                                (14.0, 12.0, 4.0)), radius=1.5),),
    ),
    "overlapping_tubes": PhantomSpec(
        width=31, height=27, depth=11, baseline_amplitude=0.1, seed=43,
        tubes=(TubeSpec(points=((0.0, 13.0, 5.0), (30.0, 13.0, 5.0))),
               TubeSpec(points=((15.0, 0.0, 2.0), (15.0, 26.0, 8.0)),
                        radius=3.0, contrast=0.25)),
    ),
    "channelized": PhantomSpec(
        width=24, height=20, depth=5, seed=44,
        tubes=(TubeSpec(points=((0.0, 10.0, 2.0), (23.0, 9.0, 2.5))),),
        channels=ChannelSpec(sigmas=(0.05, 0.0, 0.1)),
    ),
    "depth_one": PhantomSpec(
        width=16, height=13, depth=1, baseline_amplitude=0.2, seed=45,
        tubes=(TubeSpec(points=((0.0, 6.0, 0.0), (15.0, 6.0, 0.0))),),
    ),
    # in one z-plane and running towards -x: at the start point's column, t's
    # in-plane terms sum to -0.0, and the depth term turns it to +0.0 on the
    # slices above the plane
    "reversed_planar_segment": PhantomSpec(
        width=23, height=13, depth=7, seed=46,
        tubes=(TubeSpec(points=((20.0, 6.0, 3.0), (2.0, 6.0, 3.0)), radius=1.5),),
    ),
    "vertical_segment": PhantomSpec(
        width=15, height=14, depth=8, seed=47,
        tubes=(TubeSpec(points=((7.0, 8.0, 1.0), (7.0, 8.0, 6.0)), contrast=0.3),),
    ),
}


class TestWholeVolumeOracle:
    """The slice-wise generator equals the whole-volume reference bit for bit."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_outputs_equal_oracle_exactly(self, name):
        spec = ORACLE_SPECS[name]
        out = generate(spec)
        clean, noisy, mask, channels = oracles.phantom_generate(spec)
        np.testing.assert_array_equal(out.clean, clean)
        np.testing.assert_array_equal(out.noisy, noisy)
        np.testing.assert_array_equal(out.truth_mask, mask)
        if channels is None:
            assert out.channels is None
        else:
            assert len(out.channels) == len(channels)
            for got, want in zip(out.channels, channels):
                np.testing.assert_array_equal(got, want)


def test_generate_peak_memory_is_outputs_plus_slices():
    spec = default_venous_spec()
    volume_bytes = 8 * spec.width * spec.height * spec.depth
    tracemalloc.start()
    try:
        out = generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.noisy.shape == (spec.depth, spec.height, spec.width)
    # clean, noisy and the truth mask are three volumes
    assert peak / volume_bytes <= 4.0


class TestGenerateFlow:
    def spec(self, sig=(0.05, 0.1)):
        return PhantomSpec(width=32, height=32, depth=8, noise_sigma=0.0,
                           channels=ChannelSpec(sigmas=sig), seed=11)

    def test_requires_channels(self):
        with pytest.raises(ValueError, match="channel"):
            generate_flow(PhantomSpec(width=16, height=16, depth=2))

    def test_component_shapes_and_counts(self):
        flow = generate_flow(self.spec())
        assert len(flow["x"]) == len(flow["y"]) == len(flow["z"]) == 2
        assert flow["clean"].shape == (32, 32)
        assert flow["mask"].shape == (32, 32)

    def test_noiseless_components_recombine_to_sensitivity_scaled_clean(self):
        flow = generate_flow(self.spec(sig=(0.0, 0.0)))
        total = flow["x"][0] + flow["y"][0] + flow["z"][0]
        ratio = total / flow["clean"]
        # the recombined channel is clean times a smooth sensitivity in
        # [floor, 1]
        assert ratio.min() >= 0.25 - 1e-12
        assert ratio.max() <= 1.0 + 1e-12

    def test_noise_scales_with_sigma(self):
        flow_a = generate_flow(self.spec(sig=(0.0, 0.0)))
        flow_b = generate_flow(self.spec(sig=(0.05, 0.1)))
        resid = (flow_b["x"][1] + flow_b["y"][1] + flow_b["z"][1]) - (
            flow_a["x"][1] + flow_a["y"][1] + flow_a["z"][1]
        )
        assert abs(resid.std(ddof=1) - 0.1) < 0.015

    def test_equals_whole_volume_definition(self):
        """The folded projections and the components equal those made from
        ``generate``'s whole volumes, with component noise drawn from seed + 1
        channel by channel, x before y before z."""
        spec = PhantomSpec(width=20, height=18, depth=5, baseline_amplitude=0.3, seed=11,
                           tubes=(TubeSpec(points=((0.0, 8.0, 2.0), (19.0, 9.0, 3.0))),),
                           channels=ChannelSpec(sigmas=(0.05, 0.0, 0.1)))
        ph = generate(spec)
        clean, mask = ph.clean.max(axis=0), ph.truth_mask.max(axis=0)
        flow = generate_flow(spec)
        assert flow["clean"].tobytes() == clean.tobytes()
        assert flow["mask"].tobytes() == mask.tobytes()
        rng = np.random.default_rng(spec.seed + 1)
        maps = oracles._sensitivity_maps(spec)
        for k, (s_map, sig) in enumerate(zip(maps, spec.channels.sigmas)):
            for axis, w in zip("xyz", (0.5, 0.3, 0.2)):
                want = w * clean * s_map
                if sig > 0:
                    want = want + rng.normal(0.0, sig * (1.0 / math.sqrt(3.0)), size=want.shape)
                np.testing.assert_array_equal(flow[axis][k], want)

    def test_deterministic(self):
        a = generate_flow(self.spec())
        b = generate_flow(self.spec())
        for axis in ("x", "y", "z"):
            for ca, cb in zip(a[axis], b[axis]):
                np.testing.assert_array_equal(ca, cb)


class TestDipAmplitude:
    def test_flat_field_is_zero(self):
        img = np.ones((20, 20))
        mask = np.zeros((20, 20))
        mask[10, 5:15] = 1.0
        assert dip_amplitude(img, mask) == 0.0

    def test_single_pixel_dip(self):
        img = np.ones((30, 30))
        img[10, 10] = 0.8
        mask = np.zeros((30, 30))
        mask[10, 10] = 1.0
        assert abs(dip_amplitude(img, mask) - 0.2) < 1e-12

    def test_border_window_clipped(self):
        img = np.ones((12, 12))
        img[0, 0] = 0.7
        mask = np.zeros((12, 12))
        mask[0, 0] = 1.0
        assert abs(dip_amplitude(img, mask) - 0.3) < 1e-12

    def test_negative_for_bright_bump(self):
        img = np.ones((16, 16))
        img[8, 8] = 1.5
        mask = np.zeros((16, 16))
        mask[8, 8] = 1.0
        assert abs(dip_amplitude(img, mask) + 0.5) < 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dip_amplitude(np.ones((8, 8)), np.zeros((8, 8)))

    def test_full_mask_rejected(self):
        with pytest.raises(ValueError, match="whole"):
            dip_amplitude(np.ones((8, 8)), np.ones((8, 8)))

    def test_phantom_projection_dip(self):
        out = generate(default_venous_spec(seed=21))
        mip = out.noisy.min(axis=0)
        mask2d = out.truth_mask.max(axis=0)
        dip = dip_amplitude(mip, mask2d)
        # mask pixels near the tube wall barely dip, and projected noise
        # lowers the surrounding baseline, so the mean is well under the
        # 0.2 axis contrast; it must still be clearly positive
        assert dip > 0.02
