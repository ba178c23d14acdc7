"""Flow merging, channel combination, and filter-synthesized rescaling."""
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import smooth_field
from mipdiff import phased_array
from mipdiff.diffusion import AdaptiveParams, FilterTrace, run_filter
from mipdiff.phased_array import (
    combine_flow,
    filter_synthesized_scale,
    pa_combine,
    pc_pipeline,
)


def trace_with(basis_sum):
    return FilterTrace(iterations=1, relative_changes=[0.0],
                       basis_sum=np.asarray(basis_sum, dtype=np.float64),
                       converged=True)


class TestCombineFlow:
    def test_zero_flow(self):
        z = [np.zeros((3, 3))]
        out = combine_flow(z, z, z)
        assert np.all(out[0] == 0.0)

    def test_constant_sum(self):
        out = combine_flow([np.full((2, 2), 1.0)], [np.full((2, 2), 2.0)],
                           [np.full((2, 2), 3.0)], mode="sum")
        np.testing.assert_array_equal(out[0], np.full((2, 2), 6.0))

    def test_matches_scalar_oracle(self, rng):
        xs = rng.normal(0.0, 1.0, (4, 4))
        ys = rng.normal(0.0, 1.0, (4, 4))
        zs = rng.normal(0.0, 1.0, (4, 4))
        for mode in ("sum", "magnitude"):
            got = combine_flow([xs], [ys], [zs], mode)[0]
            want = oracles.combine_flow(
                oracles.grid(xs), oracles.grid(ys), oracles.grid(zs), mode
            )
            np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)

    def test_magnitude_non_negative(self, rng):
        xs = [rng.normal(0.0, 1.0, (5, 5))]
        out = combine_flow(xs, xs, xs, mode="magnitude")
        assert np.all(out[0] >= 0.0)

    def test_channel_count_mismatch(self):
        f = np.zeros((2, 2))
        with pytest.raises(ValueError, match="channel"):
            combine_flow([f, f], [f], [f])

    def test_unknown_mode(self):
        f = [np.zeros((2, 2))]
        with pytest.raises(ValueError, match="mode"):
            combine_flow(f, f, f, mode="mean")


class TestPaCombine:
    def test_three_four_five(self):
        out = pa_combine([np.full((2, 2), 3.0), np.full((2, 2), 4.0)], sigma=(1.0, 1.0))
        np.testing.assert_array_equal(out, np.full((2, 2), 5.0))

    def test_single_channel_halved(self):
        m = np.array([[2.0, -6.0]])
        out = pa_combine([m], sigma=(2.0,))
        np.testing.assert_array_equal(out, np.abs(m) / 2.0)

    def test_unit_sigma_equals_default(self, rng):
        chans = [rng.normal(0.0, 1.0, (4, 4)) for _ in range(3)]
        np.testing.assert_array_equal(
            pa_combine(chans), pa_combine(chans, sigma=(1.0, 1.0, 1.0))
        )

    def test_sigma_scaling_identity(self, rng):
        chans = [rng.normal(0.0, 1.0, (5, 5)) for _ in range(3)]
        base = pa_combine(chans, sigma=(1.0, 1.0, 1.0))
        scaled = pa_combine(chans, sigma=(4.0, 4.0, 4.0))
        np.testing.assert_allclose(scaled, base / 4.0, rtol=1e-12)

    def test_permutation_invariance(self, rng):
        chans = [rng.normal(0.0, 1.0, (4, 4)) for _ in range(4)]
        sig = [0.5, 1.0, 2.0, 3.0]
        a = pa_combine(chans, sig)
        order = [2, 0, 3, 1]
        b = pa_combine([chans[i] for i in order], [sig[i] for i in order])
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_matches_scalar_oracle(self, rng):
        chans = [rng.normal(0.0, 1.0, (6, 6)) for _ in range(3)]
        sig = [0.5, 1.5, 0.9]
        got = pa_combine(chans, sig)
        want = oracles.pa_combine([oracles.grid(c) for c in chans], sig)
        np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)

    def test_sigma_validation(self):
        chans = [np.zeros((2, 2))]
        with pytest.raises(ValueError, match="sigma"):
            pa_combine(chans, sigma=(0.0,))
        with pytest.raises(ValueError, match="sigma"):
            pa_combine(chans, sigma=(1.0, 1.0))
        with pytest.raises(ValueError, match="sigma values must be finite"):
            pa_combine(chans, sigma=(np.inf,))

    @pytest.mark.parametrize("sigma", [(1e-300, 0.1), (1e-320, 0.1), (1e-154, 1.0)])
    def test_sigma_whose_sum_overflows_refused(self, sigma):
        # |-2| / 1e-154 squared is 4e308: a negative channel's magnitude counts
        chans = [np.array([[1.0, -2.0]]), np.ones((1, 2))]
        with pytest.raises(ValueError, match="sigma values .* overflows"):
            pa_combine(chans, sigma)

    def test_smallest_sigma_without_overflow_runs(self):
        # (1 / 1e-154)^2 + (1 / 0.1)^2 is 1e308 + 100: finite, and no warning
        out = pa_combine([np.ones((1, 2)), np.ones((1, 2))], (1e-154, 0.1))
        assert np.isfinite(out).all()

    def test_empty_channel_list(self):
        with pytest.raises(ValueError, match="channel"):
            pa_combine([])


class TestFilterSynthesizedScale:
    def test_equal_maps_pass_through(self, rng):
        f = rng.normal(1.0, 0.2, (5, 5))
        num = rng.normal(0.0, 1.0, (5, 5))
        out = filter_synthesized_scale([(f, trace_with(num))], trace_with(num))
        np.testing.assert_array_equal(out[0], f)

    def test_zero_numerator_zeroes_channel(self, rng):
        f = rng.normal(1.0, 0.2, (4, 4))
        num = np.zeros((4, 4))
        denom = np.full((4, 4), 2.0)
        out = filter_synthesized_scale([(f, trace_with(num))], trace_with(denom))
        assert np.all(out[0] == 0.0)

    def test_small_denominator_passes_through(self, rng):
        f = rng.normal(1.0, 0.2, (3, 3))
        num = np.full((3, 3), 5.0)
        denom = np.full((3, 3), 1e-15)
        out = filter_synthesized_scale([(f, trace_with(num))], trace_with(denom))
        np.testing.assert_array_equal(out[0], f)

    def test_matches_scalar_oracle(self, rng):
        f1 = rng.normal(1.0, 0.2, (6, 6))
        f2 = rng.normal(1.0, 0.2, (6, 6))
        n1 = rng.normal(0.0, 1.0, (6, 6))
        n2 = rng.normal(0.0, 1.0, (6, 6))
        den = rng.normal(0.0, 1.0, (6, 6))
        den[0, 0] = 0.0
        den[3, 3] = 1e-14  # exercise the pass-through branch
        got = filter_synthesized_scale(
            [(f1, trace_with(n1)), (f2, trace_with(n2))], trace_with(den)
        )
        want = oracles.scale_channels(
            [oracles.grid(f1), oracles.grid(f2)],
            [oracles.grid(n1), oracles.grid(n2)],
            oracles.grid(den),
        )
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, np.array(w), rtol=0, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        f = rng.normal(0.0, 1.0, (3, 3))
        with pytest.raises(ValueError, match="shape"):
            filter_synthesized_scale(
                [(f, trace_with(np.zeros((2, 2))))], trace_with(np.zeros((3, 3)))
            )


class TestPcPipeline:
    def make_channels(self, rng, n_channels=2, shape=(12, 12)):
        xs = [rng.uniform(0.4, 0.6, shape) for _ in range(n_channels)]
        ys = [rng.uniform(0.2, 0.4, shape) for _ in range(n_channels)]
        zs = [rng.uniform(0.1, 0.2, shape) for _ in range(n_channels)]
        return combine_flow(xs, ys, zs)

    def test_alpha_zero_degenerates_to_plain_combination(self, rng):
        merged = self.make_channels(rng)
        scaled, combined = pc_pipeline(merged, AdaptiveParams(alpha=0.0))
        np.testing.assert_array_equal(combined, pa_combine(merged))
        for s, m in zip(scaled, merged):
            np.testing.assert_array_equal(s, m)

    @pytest.mark.parametrize("sigma", [None, (0.5, 1.0, 2.0, 0.8)], ids=["plain", "sigma"])
    def test_matches_composed_module_calls(self, rng, sigma):
        merged = self.make_channels(rng, n_channels=4)
        params = AdaptiveParams(alpha=2.0, mode="mip", max_iterations=3)
        # a tolerance between the channels' first relative changes stops
        # some channels after one step while the others step on; each run's
        # basis_sum is a view of its own update buffer either way, which
        # the stream rescales in place
        first = [run_filter(m, replace(params, max_iterations=1))[1].relative_changes[0]
                 for m in merged]
        params = replace(params, tolerance=(min(first) + max(first)) / 2)
        scaled, combined = pc_pipeline(merged, params, sigma)
        filtered = [run_filter(m, params) for m in merged]
        assert len({trace.iterations for _, trace in filtered}) > 1
        _, ctrace = run_filter(pa_combine(merged, sigma), params)
        want_scaled = filter_synthesized_scale(filtered, ctrace)
        for got, want in zip(scaled, want_scaled, strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(combined, pa_combine(want_scaled, sigma))

    def test_identical_channels_scale_as_sqrt_n(self, rng):
        base = rng.uniform(0.5, 1.0, (12, 12))
        n = 3
        merged = combine_flow([0.5 * base] * n, [0.3 * base] * n, [0.2 * base] * n)
        params = AdaptiveParams(alpha=1.5, mode="mip", max_iterations=2)
        scaled, combined = pc_pipeline(merged, params)
        for s in scaled[1:]:
            np.testing.assert_array_equal(s, scaled[0])
        np.testing.assert_allclose(
            combined, math.sqrt(n) * np.abs(scaled[0]), rtol=1e-12
        )

    def test_sigma_forwarded_to_combinations(self, rng):
        merged = self.make_channels(rng)
        params = AdaptiveParams(alpha=0.0)
        _, combined = pc_pipeline(merged, params, sigma=(0.5, 2.0))
        np.testing.assert_array_equal(combined, pa_combine(merged, (0.5, 2.0)))

    def test_filtered_channel_whose_sigma_sum_overflows_refused(self, rng, monkeypatch):
        # the inputs pass, but a filtered channel near 1e200 would overflow
        # (f / sigma)^2: refused with pa_combine's words before it is folded
        def huge(field, params):
            return np.full(np.shape(field), 1e200), trace_with(np.ones(np.shape(field)))

        monkeypatch.setattr(phased_array, "run_filter", huge)
        with pytest.raises(ValueError, match=r"sigma values \[1.0, 1.0\] .* overflows"):
            pc_pipeline(self.make_channels(rng), AdaptiveParams(mode="mip"), sigma=[1.0, 1.0])

    def test_sigma_checked_before_any_filter_runs(self, rng, monkeypatch):
        def no_filter(*args, **kwargs):
            raise AssertionError("run_filter called before the sigmas were checked")

        monkeypatch.setattr(phased_array, "run_filter", no_filter)
        with pytest.raises(ValueError, match="sigma values must be finite and positive"):
            pc_pipeline(self.make_channels(rng), AdaptiveParams(mode="mip"),
                        sigma=[math.inf, 1.0])

    @pytest.mark.parametrize("tiny", [1e-154, 1e-45])
    def test_sigma_whose_combination_leaves_float32_checked_first(self, rng, monkeypatch,
                                                                  tiny):
        # sqrt((max|M_1| / tiny)^2 + ...) is finite but beyond float32's range
        def no_filter(*args, **kwargs):
            raise AssertionError("run_filter called before the sigmas were checked")

        monkeypatch.setattr(phased_array, "run_filter", no_filter)
        with pytest.raises(ValueError, match=r"sigmas \[.*\] .* beyond float32 range"):
            pc_pipeline(self.make_channels(rng), AdaptiveParams(mode="mip"),
                        sigma=[tiny, 1.0])
