import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefit.aggregate import SUM_LIMIT, aggregate, build_pyramid, check_sums_fit, dyadic_scales
from scalefit.synth import FgnSpec, generate_fgn

finite_values = st.floats(-1e6, 1e6, allow_nan=False)


class TestAggregate:
    def test_block_sums(self):
        assert np.array_equal(aggregate([1.0, 2.0, 3.0, 4.0], 2), [3.0, 7.0])

    def test_scale_one_is_identity(self):
        x = np.array([0.5, -1.5, 2.0])
        assert np.array_equal(aggregate(x, 1), x)

    def test_remainder_dropped(self):
        assert np.array_equal(aggregate([1.0, 2.0, 3.0, 4.0, 5.0], 2), [3.0, 7.0])

    def test_full_collapse(self):
        assert np.array_equal(aggregate([1.0, 2.0, 3.0, 4.0], 4), [10.0])

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            aggregate([1.0, 2.0], 0)

    def test_rejects_oversized_scale(self):
        with pytest.raises(ValueError):
            aggregate([1.0, 2.0], 3)

    @settings(max_examples=100)
    @given(
        values=st.lists(finite_values, min_size=1, max_size=256),
        n=st.integers(1, 32),
    )
    def test_mass_preservation(self, values, n):
        x = np.array(values)
        if n > x.size:
            n = x.size
        out = aggregate(x, n)
        used = x[: (x.size // n) * n]
        assert math.fsum(out) == pytest.approx(math.fsum(used), rel=1e-12, abs=1e-9)

    @settings(max_examples=100)
    @given(
        exponent=st.integers(3, 9),
        a=st.sampled_from([1, 2, 4]),
        b=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_composition(self, exponent, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=2**exponent)
        if a * b > x.size:
            return
        nested = aggregate(aggregate(x, a), b)
        direct = aggregate(x, a * b)
        np.testing.assert_allclose(nested, direct, rtol=1e-12, atol=1e-12)

    def test_deterministic_bit_stable(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=1024)
        assert np.array_equal(aggregate(x, 7), aggregate(x, 7))

    @pytest.mark.parametrize("n", [1, 2, 4096])
    def test_rejects_overflowing_sums(self, n):
        """aggregate applies build_pyramid's overflow rule, before any sum
        (RuntimeWarnings are errors here)."""
        x = 1e305 * generate_fgn(FgnSpec(0.8, 4096, 1.0, 3)).samples + 1e306
        with pytest.raises(ValueError, match="sums overflow float64"):
            aggregate(x, n)


class TestBuildPyramid:
    def test_level_lengths(self):
        x = np.arange(2**10, dtype=float)
        pyramid = build_pyramid(x, [2**e for e in range(8)])
        assert pyramid.scales == tuple(2**e for e in range(8))
        for n in pyramid.scales:
            assert pyramid.series[n].size == 2**10 // n

    def test_scale_one_wraps_source(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        pyramid = build_pyramid(x, [1])
        assert np.array_equal(pyramid.series[1], x)

    def test_rejects_fewer_than_8_blocks(self):
        with pytest.raises(ValueError, match="8"):
            build_pyramid(np.zeros(64), [16])

    def test_accepts_exactly_8_blocks(self):
        pyramid = build_pyramid(np.zeros(64), [8])
        assert pyramid.series[8].size == 8

    def test_default_scales_are_dyadic(self):
        pyramid = build_pyramid(np.zeros(2**12))
        assert pyramid.scales == tuple(2**e for e in range(10))

    def test_rejects_empty_scales(self):
        with pytest.raises(ValueError):
            build_pyramid(np.zeros(64), [])

    def test_scales_sorted_and_deduplicated(self):
        pyramid = build_pyramid(np.zeros(64), [4, 1, 4, 2])
        assert pyramid.scales == (1, 2, 4)

    def test_rejects_overflowing_sums(self):
        """Finite samples whose sums pass float64's range are refused by
        name, before any sum (RuntimeWarnings are errors here)."""
        x = 1e305 * generate_fgn(FgnSpec(0.8, 4096, 1.0, 3)).samples + 1e306
        with pytest.raises(ValueError, match="sums overflow float64"):
            build_pyramid(x)

    def test_sums_below_limit_pass_and_at_limit_fail(self):
        x = np.full(64, SUM_LIMIT / 128)
        x[1::2] *= -1.0
        pyramid = build_pyramid(x)
        assert np.array_equal(pyramid.series[2], np.zeros(32))
        with pytest.raises(ValueError, match="sums overflow float64"):
            check_sums_fit(2.0 * x)


def _summation_inputs():
    """fGn, the same fGn behind a 1e7 offset, and heavy-tailed Cauchy
    noise, at 2^14 samples."""
    x = generate_fgn(FgnSpec(0.8, 2**14, 1.0, 9)).samples
    return {"fgn": x, "fgn_offset_1e7": x + 1e7,
            "cauchy": np.random.default_rng(9).standard_cauchy(2**14)}


SUMMATION_INPUTS = _summation_inputs()


def _fsum_blocks(x, n):
    return np.array([math.fsum(block) for block in x[: x.size // n * n].reshape(-1, n)])


class TestPairwiseSummation:
    @pytest.mark.parametrize("name", sorted(SUMMATION_INPUTS))
    def test_pyramid_is_aggregate_and_fsum(self, name):
        x = SUMMATION_INPUTS[name]
        pyramid = build_pyramid(x)
        assert pyramid.scales[-1] == 2**11
        for n in pyramid.scales:
            assert pyramid.series[n].tobytes() == aggregate(x, n).tobytes()
            assert pyramid.series[n].tobytes() == _fsum_blocks(x, n).tobytes()

    @pytest.mark.parametrize("name", sorted(SUMMATION_INPUTS))
    @pytest.mark.parametrize("n", [3, 6, 7])
    def test_odd_width_blocks(self, name, n):
        # odd columns carry up the tree; mass is preserved and, on these
        # inputs, every block is the correctly rounded sum
        x = SUMMATION_INPUTS[name]
        out = aggregate(x, n)
        used = x[: x.size // n * n]
        assert math.fsum(out) == pytest.approx(math.fsum(used), rel=1e-12, abs=1e-9)
        assert out.tobytes() == _fsum_blocks(x, n).tobytes()
        mixed = build_pyramid(x, [1, 2, n, 8])
        assert mixed.series[n].tobytes() == out.tobytes()
        assert mixed.series[8].tobytes() == aggregate(x, 8).tobytes()


class TestDyadicScales:
    def test_power_of_two_length(self):
        assert dyadic_scales(2**10) == [2**e for e in range(8)]

    def test_non_power_length_floors(self):
        assert dyadic_scales(1000) == [2**e for e in range(7)]  # floor(log2 1000) = 9

    def test_every_scale_leaves_8_blocks(self):
        for length in (16, 100, 2**16, 12345):
            for n in dyadic_scales(length):
                assert length // n >= 8


class TestVarianceScaling:
    def test_iid_gaussian_variance_slope_one(self):
        # sums of n i.i.d. unit-variance terms have variance n
        rng = np.random.default_rng(5)
        x = rng.normal(size=2**14)
        scales = [2**e for e in range(9)]
        pyramid = build_pyramid(x, scales)
        log_var = [np.log2(pyramid.series[n].var(ddof=1)) for n in scales]
        slope = np.polyfit(np.log2(scales), log_var, 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)
