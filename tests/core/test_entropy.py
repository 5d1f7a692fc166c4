"""Unit tests for the window-based entropy metric (paper Section III)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hynix_gddr5_map, toy_map
from repro.core.entropy import (
    EntropyProfile,
    application_entropy_profile,
    average_entropy_profile,
    bit_value_ratios,
    entropy_of_bvr_window,
    find_entropy_valleys,
    has_parallel_bit_valley,
    kernel_entropy_profile,
    stream_entropy,
    translate_kernel_inputs,
    window_entropy,
)

AMAP = hynix_gddr5_map()


class TestBVR:
    def test_all_zero_bit(self):
        assert bit_value_ratios([0, 0, 0], 4)[0] == 0.0

    def test_all_one_bit(self):
        assert bit_value_ratios([1, 1, 1], 4)[0] == 1.0

    def test_half(self):
        bvr = bit_value_ratios([0b01, 0b00], 2)
        assert bvr[0] == 0.5 and bvr[1] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bit_value_ratios([], 4)


class TestWorkedExamples:
    """The paper's own numbers pin the metric down exactly."""

    def test_footnote_1(self):
        """BVRs {0, 0, 1} -> p = (2/3, 1/3) -> H = 0.92."""
        assert entropy_of_bvr_window([0.0, 0.0, 1.0]) == pytest.approx(0.9183, abs=1e-4)

    def test_figure_3_window_2(self):
        """Sorted BVRs 0,0,1,1,0,0,1,1 with w=2 -> H* = 3/7."""
        bvrs = np.array([[0], [0], [1], [1], [0], [0], [1], [1]], dtype=float)
        assert window_entropy(bvrs, 2)[0] == pytest.approx(3 / 7)

    def test_figure_3_window_4(self):
        """Same TBs with w=4: every window is balanced -> H* = 1."""
        bvrs = np.array([[0], [0], [1], [1], [0], [0], [1], [1]], dtype=float)
        assert window_entropy(bvrs, 4)[0] == pytest.approx(1.0)

    def test_single_unique_bvr_is_zero(self):
        """A window with one unique BVR value has zero entropy, even 0.5."""
        bvrs = np.full((8, 1), 0.5)
        assert window_entropy(bvrs, 4)[0] == 0.0

    def test_log_base_v_normalization(self):
        """Three equally likely BVR values give entropy exactly 1."""
        assert entropy_of_bvr_window([0.1, 0.5, 0.9]) == pytest.approx(1.0)


class TestWindowEntropy:
    def test_window_larger_than_tbs_clamps(self):
        bvrs = np.array([[0], [1]], dtype=float)
        # One window covering both TBs: balanced -> 1.
        assert window_entropy(bvrs, 10)[0] == pytest.approx(1.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            window_entropy(np.zeros((3, 2)), 0)

    def test_needs_2d(self):
        with pytest.raises(ValueError):
            window_entropy(np.zeros(5), 2)

    def test_no_tbs(self):
        with pytest.raises(ValueError):
            window_entropy(np.zeros((0, 3)), 2)

    def test_per_bit_independence(self):
        bvrs = np.array([[0, 0.5], [1, 0.5], [0, 0.5], [1, 0.5]], dtype=float)
        h = window_entropy(bvrs, 2)
        assert h[0] == pytest.approx(1.0)
        assert h[1] == 0.0

    def test_float_noise_quantized(self):
        """BVRs equal up to 1e-13 are treated as one value."""
        bvrs = np.array([[0.5], [0.5 + 1e-14], [0.5 - 1e-14]], dtype=float)
        assert window_entropy(bvrs, 3)[0] == 0.0


class TestStreamEntropy:
    def test_constant_bit(self):
        h = stream_entropy([0, 0, 0, 0], 4)
        assert (h == 0).all()

    def test_alternating_bit_is_one(self):
        h = stream_entropy([0, 1, 0, 1], 1)
        assert h[0] == pytest.approx(1.0)


class TestProfiles:
    def _column_major_kernel(self, n_tbs=32, stride=1 << 14):
        """TB t walks addresses sharing low bits — a synthetic valley."""
        return [
            np.arange(8, dtype=np.uint64) * np.uint64(stride)
            + np.uint64(t * 8 * stride)
            for t in range(n_tbs)
        ]

    def test_kernel_profile_shape(self):
        profile = kernel_entropy_profile(self._column_major_kernel(), AMAP, 12)
        assert profile.values.shape == (30,)
        assert ((profile.values >= 0) & (profile.values <= 1)).all()

    def test_empty_tbs_skipped(self):
        tbs = self._column_major_kernel()
        tbs.insert(3, np.empty(0, dtype=np.uint64))
        profile = kernel_entropy_profile(tbs, AMAP, 12)
        assert profile.values.shape == (30,)

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            kernel_entropy_profile([np.empty(0, dtype=np.uint64)], AMAP, 12)

    def test_application_weighting(self):
        """A heavier kernel dominates the application profile."""
        # Kernel A: bit 8 constant across window. Kernel B: bit 8 balanced.
        tb_a = [np.full(4, 0, dtype=np.uint64) for _ in range(16)]
        tb_b = [np.full(4, (t % 2) << 8, dtype=np.uint64) for t in range(16)]
        light = application_entropy_profile([(tb_a, 1000), (tb_b, 1)], AMAP, 4)
        heavy = application_entropy_profile([(tb_a, 1), (tb_b, 1000)], AMAP, 4)
        assert heavy.values[8] > light.values[8]

    def test_application_default_weight_is_request_count(self):
        tb_a = [np.full(4, 0, dtype=np.uint64) for _ in range(8)]
        profile = application_entropy_profile([(tb_a, 0)], AMAP, 4)
        assert profile.values.shape == (30,)

    def test_average_profile(self):
        p1 = EntropyProfile(np.zeros(30), AMAP)
        p2 = EntropyProfile(np.ones(30), AMAP)
        avg = average_entropy_profile([p1, p2])
        assert (avg == 0.5).all()

    def test_average_profile_width_mismatch(self):
        p1 = EntropyProfile(np.zeros(30), AMAP)
        p2 = EntropyProfile(np.zeros(6), toy_map())
        with pytest.raises(ValueError):
            average_entropy_profile([p1, p2])

    def test_profile_field_means(self):
        values = np.zeros(30)
        values[8:10] = 1.0
        profile = EntropyProfile(values, AMAP)
        assert profile.of_bits(AMAP.bits_of("channel")).mean() == pytest.approx(1.0)
        assert profile.of_bits(AMAP.bits_of("bank")).mean() == 0.0
        assert profile.parallel_bit_entropy() == pytest.approx(2 / 6)

    def test_series_msb_first(self):
        profile = EntropyProfile(np.linspace(0, 1, 30), AMAP)
        series = profile.series()
        assert series[0][0] == 29
        assert series[-1][0] == 6  # block bits not plotted


class TestValleyDetection:
    def _profile(self, low_bits, high=0.9, low=0.1):
        values = np.full(30, high)
        values[:6] = 0.0  # block bits, not plotted
        for b in low_bits:
            values[b] = low
        return EntropyProfile(values, AMAP)

    def test_valley_in_channel_bits_detected(self):
        profile = self._profile(range(8, 12))
        assert find_entropy_valleys(profile) == [(8, 11)]
        assert has_parallel_bit_valley(profile)

    def test_msb_tail_is_not_a_valley(self):
        """CPU-style decay towards the MSB has no upper wall."""
        profile = self._profile(range(22, 30))
        assert find_entropy_valleys(profile) == []
        assert not has_parallel_bit_valley(profile)

    def test_low_bit_valley_outside_parallel_bits(self):
        profile = self._profile((6, 7))
        assert find_entropy_valleys(profile) == [(6, 7)]
        assert not has_parallel_bit_valley(profile)

    def test_min_width(self):
        profile = self._profile((10,))
        assert find_entropy_valleys(profile, min_width=2) == []
        assert find_entropy_valleys(profile, min_width=1) == [(10, 10)]

    def test_multiple_valleys(self):
        profile = self._profile(list(range(8, 10)) + list(range(20, 23)))
        assert find_entropy_valleys(profile) == [(8, 9), (20, 22)]

    def test_flat_high_profile_has_no_valley(self):
        profile = self._profile(())
        assert find_entropy_valleys(profile) == []


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),   # n_tbs
    st.integers(min_value=1, max_value=25),   # window
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_window_entropy_bounds_property(n_tbs, window, seed):
    """Property: H* per bit always lies in [0, 1]."""
    rng = np.random.default_rng(seed)
    bvrs = rng.random((n_tbs, 8))
    h = window_entropy(bvrs, window)
    assert ((h >= 0) & (h <= 1 + 1e-12)).all()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=12))
def test_window_of_identical_values_is_zero(values):
    h = entropy_of_bvr_window([values[0]] * len(values))
    assert h == 0.0


class TestTranslateKernelInputs:
    def test_matches_per_tb_translation(self):
        amap = hynix_gddr5_map()
        rng = np.random.default_rng(3)
        kernels = [
            ([rng.integers(0, amap.capacity, size=n, dtype=np.uint64)
              for n in (4, 9)], 13),
            ([rng.integers(0, amap.capacity, size=6, dtype=np.uint64)], None),
        ]
        from repro.registry import make_scheme
        scheme = make_scheme("FAE", amap, seed=1)
        translated = translate_kernel_inputs(kernels, scheme.bim.matrix)
        assert [w for _, w in translated] == [13, None]
        for (tbs_in, _), (tbs_out, _) in zip(kernels, translated):
            assert len(tbs_in) == len(tbs_out)
            for original, mapped in zip(tbs_in, tbs_out):
                assert (np.atleast_1d(scheme.map(original)) == mapped).all()

    def test_profiles_agree_with_unbatched_path(self):
        """The batched Fig. 10 path gives bit-identical entropy values."""
        amap = hynix_gddr5_map()
        rng = np.random.default_rng(9)
        kernels = [
            ([rng.integers(0, amap.capacity, size=24, dtype=np.uint64)
              for _ in range(6)], 0),
        ]
        from repro.registry import make_scheme
        scheme = make_scheme("PAE", amap, seed=0)
        slow = [
            ([np.atleast_1d(scheme.map(a)) for a in tbs], w)
            for tbs, w in kernels
        ]
        fast = translate_kernel_inputs(kernels, scheme.bim.matrix)
        slow_profile = application_entropy_profile(slow, amap, 4)
        fast_profile = application_entropy_profile(fast, amap, 4)
        assert (slow_profile.values == fast_profile.values).all()

    def test_empty_kernels(self):
        assert translate_kernel_inputs([], np.eye(4, dtype=np.uint8)) == []


class TestSuiteAgainstOracle:
    """The production profile sums each TB's bits over one explode of
    the kernel; the per-TB oracle calls ``bit_value_ratios`` once per
    TB.  Integer sums make every BVR, and so every profile, equal."""

    @pytest.mark.parametrize("scale", [0.25, 0.5])
    @pytest.mark.parametrize("memory", ["gddr5", "stacked"])
    def test_every_benchmark_matches_bit_for_bit(self, memory, scale):
        from entropy_oracle import application_profile
        from repro.core.address_map import stacked_memory_map
        from repro.workloads.suite import ALL_BENCHMARKS, build_workload

        amap = AMAP if memory == "gddr5" else stacked_memory_map()
        for name in ALL_BENCHMARKS:
            kernels = build_workload(name, scale).entropy_kernel_inputs()
            got = application_entropy_profile(kernels, amap, 12).values
            assert np.array_equal(
                got, application_profile(kernels, amap, 12)
            ), f"{name} on {memory} @ {scale}"
