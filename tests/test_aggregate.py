import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scalefit.aggregate import (SUM_LIMIT, _pair_sums, aggregate, build_pyramid, check_samples,
                                check_sums_fit, climb, dyadic_scales, pack_slots)
from scalefit.cumulants import empirical_cgf, sample_cumulants
from scalefit.synth import FgnSpec, Trace, generate_fgn
from scalefit.wavelet import WaveletSpec, dwt, logscale_diagram

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

    @pytest.mark.parametrize("n", [4, 1024])
    def test_power_of_two_climbs_unpadded(self, n):
        """A power-of-two n climbs the (blocks, n) view of the samples with
        no copy: traced peak 2.0 N-doubles at n = 4 and 1.75 at n = 1024
        (check_sums_fit's |x|, then the first tree levels and the sums);
        a zero-padded copy of the samples added 1 N-double to both."""
        x = np.random.default_rng(5).normal(size=2**17)
        tracemalloc.start()
        try:
            aggregate(x, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * x.size


class TestBuildPyramid:
    def test_level_lengths(self):
        x = np.arange(2**10, dtype=float)
        pyramid = build_pyramid(x)
        assert pyramid.scales == tuple(2**e for e in range(8))
        for n in pyramid.scales:
            assert pyramid.series[n].size == 2**10 // n

    def test_scale_one_wraps_source(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        pyramid = build_pyramid(x)
        assert pyramid.scales == (1,)
        assert np.array_equal(pyramid.series[1], x)
        assert not np.shares_memory(pyramid.series[1], x)

    def test_rejects_fewer_than_8_blocks(self):
        with pytest.raises(ValueError, match="^scale 1 leaves 7 blocks of a length-7 trace; "
                                             "at least 8 are required$"):
            build_pyramid(np.zeros(7))

    def test_accepts_exactly_8_blocks(self):
        pyramid = build_pyramid(np.zeros(64))
        assert pyramid.scales[-1] == 8
        assert pyramid.series[8].size == 8

    def test_default_scales_are_dyadic(self):
        pyramid = build_pyramid(np.zeros(2**12))
        assert pyramid.scales == tuple(2**e for e in range(10))

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


SERIES_ENTRY_POINTS = {
    "Trace": Trace,
    "aggregate": lambda x: aggregate(x, 2),
    "build_pyramid": build_pyramid,
    "logscale_diagram": lambda x: logscale_diagram(x, WaveletSpec("haar", 1)),
    "dwt": lambda x: dwt(x, WaveletSpec("haar", 1)),
    "sample_cumulants": sample_cumulants,
    "empirical_cgf": lambda x: empirical_cgf(x, 0.5),
}


def _with_sample(value):
    x = np.zeros(64)
    x[5] = value
    return x


BAD_SERIES = {
    "nan": (_with_sample(np.nan), "series must be finite"),
    "+inf": (_with_sample(np.inf), "series must be finite"),
    "-inf": (_with_sample(-np.inf), "series must be finite"),
    "empty": (np.zeros(0), "series must be nonempty"),
    "2-d": (np.zeros((8, 8)), "series must be one-dimensional"),
    "0-d": (np.array(1.0), "series must be one-dimensional"),
    "complex": (_with_sample(1.0) * (1 + 2j), "series must be real"),
    "complex, zero imaginary parts": (_with_sample(1.0).astype(complex), "series must be real"),
    "complex, empty": (np.zeros(0, dtype=complex), "series must be real"),
}


class TestCheckSamples:
    @pytest.mark.parametrize("entry", SERIES_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", BAD_SERIES)
    def test_every_entry_point_gives_the_owners_message(self, entry, bad):
        """Each function that takes a series refuses a bad one with
        check_samples' message, before any rule on its length or sums,
        and with no numpy RuntimeWarning."""
        series, message = BAD_SERIES[bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"^{message}$"):
                SERIES_ENTRY_POINTS[entry](series)

    def test_takes_a_traces_samples_as_floats(self):
        trace = Trace(np.arange(8))
        assert check_samples(trace) is trace.samples
        assert check_samples([1, 2]).dtype == float


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
        # each block climbs zero-padded to a power-of-two slot; mass is
        # preserved and, on these inputs, every block is the correctly
        # rounded sum
        x = SUMMATION_INPUTS[name]
        out = aggregate(x, n)
        used = x[: x.size // n * n]
        assert math.fsum(out) == pytest.approx(math.fsum(used), rel=1e-12, abs=1e-9)
        assert out.tobytes() == _fsum_blocks(x, n).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(SUMMATION_INPUTS)), length=st.integers(8, 5000))
    @example(name="cauchy", length=4097)
    @example(name="fgn_offset_1e7", length=1365)
    def test_pyramid_drops_partial_blocks(self, name, length):
        """An odd-width level drops its last column, a partial block, so
        every level holds exactly length // n sums: aggregate's block sums
        bit for bit."""
        x = SUMMATION_INPUTS[name][:length]
        pyramid = build_pyramid(x)
        assert pyramid.scales == tuple(dyadic_scales(length))
        for n in pyramid.scales:
            assert pyramid.series[n].size == length // n
            assert pyramid.series[n].tobytes() == aggregate(x, n).tobytes()

    @pytest.mark.parametrize("width", [1, 3, 5, 1365, 4097])
    def test_pair_sums_drop_an_odd_last_column(self, width):
        """A level of an odd width is the level of its even prefix: width // 2
        complete pairs, the last column dropped."""
        x = SUMMATION_INPUTS["cauchy"][:width]
        total, error = _pair_sums(x, None)
        assert total.shape == error.shape == (width // 2,)
        even_total, even_error = _pair_sums(x[:width - 1], None)
        assert total.tobytes() == even_total.tobytes()
        assert error.tobytes() == even_error.tobytes()
        total, error = _pair_sums(total, error)
        assert total.shape == error.shape == (width // 4,)


def reference_row_sums(rows):
    """Each row of a 2-D array summed by its own pairwise TwoSum tree, an
    odd last column carried up a level unchanged with a zero error: the
    unpadded per-row walk, written out apart from aggregate's code with
    _pair_sums' order of operations. A row of one sample takes one level,
    so it sums as sample + 0.0."""
    total, error = rows, None
    while error is None or total.shape[-1] > 1:
        even = total.shape[-1] - total.shape[-1] % 2
        a, b = total[:, 0:even:2], total[:, 1:even:2]
        s = a + b
        b_virtual = s - a
        rounding = (a - (s - b_virtual)) + (b - b_virtual)
        carried = np.zeros_like(total[:, even:])
        if error is not None:
            rounding = rounding + (error[:, 0:even:2] + error[:, 1:even:2])
            carried = error[:, even:]
        total = np.concatenate([s, total[:, even:]], axis=1)
        error = np.concatenate([rounding, carried], axis=1)
    return (total + error)[:, 0]


# a row: its source (an input or all zeros), its start, and its sign
ROW_SOURCES = sorted(SUMMATION_INPUTS) + ["zeros"]
row_draws = st.tuples(st.sampled_from(ROW_SOURCES), st.integers(1, 5000),
                      st.integers(0, 2**14 - 5000), st.sampled_from([1.0, -1.0]))


def _row(source, width, start, sign):
    if source == "zeros":
        return np.zeros(width)
    return sign * SUMMATION_INPUTS[source][start:start + width]


class TestSlotClimb:
    """One climb over zero-padded power-of-two slots sums every row as the
    row's own tree does: TwoSum against a zero pad returns the operand and
    a zero error exactly."""

    @settings(max_examples=60, deadline=None)
    @given(draws=st.lists(row_draws, min_size=1, max_size=40))
    @example(draws=[("fgn", 1, 0, 1.0)])
    @example(draws=[("cauchy", 4097, 5, -1.0), ("zeros", 4096, 0, 1.0), ("fgn", 1, 3, -1.0)])
    def test_ragged_climb_is_the_per_row_tree(self, draws):
        rows = sorted((_row(*draw) for draw in draws), key=lambda row: -row.size)
        buffer, slots = pack_slots(rows)
        expected = np.array([reference_row_sums(row[None, :])[0] for row in rows])
        assert climb(buffer, slots).tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(draw=row_draws, num_rows=st.integers(1, 40))
    def test_aggregate_is_the_per_row_tree(self, draw, num_rows):
        """aggregate's carried walk sums each block as the per-row tree does,
        and so as the padded climb does; a block of one sample is copied."""
        source, width, _, sign = draw
        width = min(width, 2**14 // num_rows)
        rows = _row(source, width * num_rows, 0, sign).reshape(num_rows, width)
        expected = rows[:, 0] if width == 1 else reference_row_sums(rows)
        assert aggregate(rows.ravel(), width).tobytes() == expected.tobytes()

    def test_pads_and_negation_are_exact(self):
        """A width-1 row climbs one level against its pad; -0.0 sums to +0.0
        on both routes, and negating a row negates its sum bitwise."""
        rows = [SUMMATION_INPUTS["cauchy"][:1365], np.full(3, -0.0), np.array([-0.0])]
        buffer, slots = pack_slots(rows)
        assert slots == [2048, 4, 2]
        sums = climb(buffer, slots)
        assert sums.tobytes() == np.array([reference_row_sums(r[None, :])[0]
                                           for r in rows]).tobytes()
        assert sums[1:].tobytes() == np.zeros(2).tobytes()
        assert climb(-buffer, slots)[0] == -sums[0]

    @pytest.mark.parametrize("widths, slots", [
        ([8, 2, 2], [8, 2, 2]), ([7, 1, 2], [8, 2, 2]), ([16, 2], [16, 2]),
        ([13, 1], [16, 2]), ([4, 4, 2], [4, 4, 2]), ([3, 4, 1], [4, 4, 2])])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finished_slots_pair_or_drop(self, widths, slots, sign):
        """A slot read early keeps climbing with the buffer and is never read
        again: [8, 2, 2]'s two 2-slots pair at level 2 and drop as the odd
        column at level 3, [16, 2]'s 2-slot drops at level 2, and [4, 4, 2]'s
        drops at level 2 while the 4-slots are read there."""
        x = SUMMATION_INPUTS["cauchy"]
        starts = np.cumsum([0, *widths[:-1]]) * 7
        rows = [sign * x[start:start + width] for start, width in zip(starts, widths)]
        buffer, packed = pack_slots(rows)
        assert packed == slots
        expected = np.array([reference_row_sums(row[None, :])[0] for row in rows])
        assert climb(buffer, slots).tobytes() == expected.tobytes()
        # the same climb over a leading axis, as aggregate takes it
        assert climb(np.stack([buffer, -buffer]), slots).tobytes() == np.stack(
            [expected, -expected]).tobytes()

    @pytest.mark.parametrize("slots", [[4, 8], [3], [8, 1], [16, 16, 6]])
    def test_refuses_slots_not_widest_first_powers_of_two(self, slots):
        with pytest.raises(ValueError, match="slots must be powers of two of at least 2, "
                                             "widest first"):
            climb(np.zeros(sum(slots)), slots)


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
        pyramid = build_pyramid(x)
        log_var = [np.log2(pyramid.series[n].var(ddof=1)) for n in scales]
        slope = np.polyfit(np.log2(scales), log_var, 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)
