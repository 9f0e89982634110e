import math
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefit.aggregate import aggregate, build_pyramid
from scalefit.cumulants import (
    NOISE_FLOOR_SIGMAS,
    _usable_mask,
    cumulant_scaling_table,
    empirical_cgf,
    sample_cumulants,
)
from scalefit.scaling import NUMERICAL_ZERO_REL, is_numerical_zero
from scalefit.synth import CascadeSpec, FgnSpec, generate_fgn, generate_multifractal
from test_aggregate import reference_row_sums


def exact_cumulants_from_moments(values, probs, max_order):
    """Cumulants of a finite discrete distribution, in exact arithmetic."""
    mu = [sum(p * v**r for v, p in zip(values, probs)) for r in range(max_order + 1)]
    kappa = [None] * (max_order + 1)
    for r in range(1, max_order + 1):
        kappa[r] = mu[r] - sum(
            math.comb(r - 1, j - 1) * kappa[j] * mu[r - j] for j in range(1, r)
        )
    return kappa[1:]


class TestSampleCumulants:
    def test_constant_series(self):
        ks = sample_cumulants(np.full(10, 3.25), 4)
        assert ks[0] == 3.25
        assert np.array_equal(ks[1:], [0.0, 0.0, 0.0])

    def test_one_two_three(self):
        # hand computation: mean 2, central sums S2 = 2, S3 = 0
        # k2 = S2/(n-1) = 1, k3 = n*S3/((n-1)(n-2)) = 0
        ks = sample_cumulants([1.0, 2.0, 3.0], 3)
        np.testing.assert_allclose(ks, [2.0, 1.0, 0.0], rtol=0, atol=1e-15)

    def test_unbiasedness_by_exact_enumeration(self):
        """E[k_m] over all samples of a two-point law equals kappa_m.

        k-statistics are by definition the symmetric unbiased cumulant
        estimators; enumerating every sample of a {0, 1} distribution
        with exact weights checks all six orders' coefficients at once.
        """
        values = [0.0, 1.0]
        probs = [Fraction(1, 3), Fraction(2, 3)]
        n = 7
        expected = [Fraction(0)] * 6
        for sample in product(range(2), repeat=n):
            weight = Fraction(1)
            for s in sample:
                weight *= probs[s]
            ks = sample_cumulants(np.array([values[s] for s in sample]), 6)
            for m in range(6):
                expected[m] += weight * Fraction(ks[m])
        kappa = exact_cumulants_from_moments(
            [Fraction(0), Fraction(1)], probs, 6
        )
        for m in range(6):
            assert float(expected[m]) == pytest.approx(float(kappa[m]), rel=1e-10, abs=1e-12)

    def test_gaussian_high_cumulants_vanish(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=10**6)
        ks = sample_cumulants(x, 4)
        assert abs(ks[2]) < 0.02
        assert abs(ks[3]) < 0.02

    def test_exponential_cumulants(self):
        # kappa_m of Exp(1) is (m-1)!
        rng = np.random.default_rng(1)
        x = rng.exponential(size=10**6)
        ks = sample_cumulants(x, 4)
        np.testing.assert_allclose(ks, [1.0, 1.0, 2.0, 6.0], atol=0.2)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            sample_cumulants([1.0, 2.0, 3.0], 4)

    def test_rejects_2d_series(self):
        with pytest.raises(ValueError, match="^series must be one-dimensional$"):
            sample_cumulants(np.zeros((4, 4)), 2)

    @pytest.mark.parametrize("order", [0, 7, -1])
    def test_rejects_bad_order(self, order):
        with pytest.raises(ValueError):
            sample_cumulants(np.arange(20.0), order)

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(8, 200),
        shift=st.floats(-10.0, 10.0),
    )
    def test_shift_invariance(self, seed, size, shift):
        x = np.random.default_rng(seed).normal(size=size)
        base = sample_cumulants(x, 6)
        shifted = sample_cumulants(x + shift, 6)
        assert shifted[0] == pytest.approx(base[0] + shift, rel=1e-10, abs=1e-10)
        for m in range(2, 7):
            assert shifted[m - 1] == pytest.approx(base[m - 1], rel=1e-10, abs=1e-12)

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(8, 200),
        scale=st.floats(0.1, 10.0),
    )
    def test_homogeneity(self, seed, size, scale):
        x = np.random.default_rng(seed).normal(size=size)
        base = sample_cumulants(x, 6)
        scaled = sample_cumulants(scale * x, 6)
        for m in range(1, 7):
            assert scaled[m - 1] == pytest.approx(
                scale**m * base[m - 1], rel=1e-10, abs=1e-12
            )

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(8, 100))
    def test_negation_parity_exact(self, seed, size):
        x = np.random.default_rng(seed).normal(size=size)
        base = sample_cumulants(x, 6)
        negated = sample_cumulants(-x, 6)
        for m in range(1, 7):
            expected = -base[m - 1] if m % 2 else base[m - 1]
            assert negated[m - 1] == expected  # bitwise


def tree_sum(row):
    """One row summed by its own pairwise TwoSum tree."""
    return reference_row_sums(row[None, :])[0]


def fsum_cumulants(x, max_order, total=math.fsum):
    """Reference k-statistics: the mean and power sums one total each
    (by default the correctly rounded math.fsum), the rest as
    sample_cumulants computes it."""
    n = x.size
    mean = total(x) / n
    out = np.empty(max_order)
    out[0] = mean
    if max_order == 1:
        return out
    d = x - mean
    _, exponent = np.frexp(np.abs(d).max())
    d = np.ldexp(d, -exponent)
    s = {}
    power = d
    for r in range(2, max_order + 1):
        power = power * d
        s[r] = total(power)
    nn = float(n)
    out[1] = s[2] / (nn - 1)
    if max_order >= 3:
        out[2] = nn * s[3] / ((nn - 1) * (nn - 2))
    if max_order >= 4:
        out[3] = (nn * (nn + 1) * s[4] - 3 * (nn - 1) * s[2] ** 2) / (
            (nn - 1) * (nn - 2) * (nn - 3)
        )
    if max_order >= 5:
        out[4] = (nn**2 * (nn + 5) * s[5] - 10 * nn * (nn - 1) * s[2] * s[3]) / (
            (nn - 1) * (nn - 2) * (nn - 3) * (nn - 4)
        )
    if max_order >= 6:
        num = (
            nn * (nn + 1) * (nn * nn + 15 * nn - 4) * s[6]
            - 15 * (nn - 1) ** 2 * (nn + 4) * s[2] * s[4]
            - 10 * (nn - 1) * (nn * nn - nn + 4) * s[3] ** 2
            + 30 * (nn - 1) * (nn - 2) * s[2] ** 3
        )
        out[5] = num / ((nn - 1) * (nn - 2) * (nn - 3) * (nn - 4) * (nn - 5))
    with np.errstate(over="ignore"):
        out[1:] = np.ldexp(out[1:], exponent * np.arange(2, max_order + 1))
    return out


def _summation_inputs():
    """fGn, the same fGn behind a 1e7 offset, heavy-tailed Cauchy noise
    and the cascade-modulated composite, at 2^14 samples."""
    fgn = FgnSpec(0.8, 2**14, 1.0, 9)
    x = generate_fgn(fgn).samples
    return {"fgn": x, "fgn_offset_1e7": x + 1e7,
            "cauchy": np.random.default_rng(9).standard_cauchy(2**14),
            "composite": generate_multifractal(fgn, CascadeSpec(14, 2.0, 1.0, 9)).samples}


SUMMATION_INPUTS = _summation_inputs()


class TestPairwisePowerSums:
    """The k-statistics sum on aggregate's pairwise TwoSum tree; on these
    inputs every power sum is the correctly rounded one, so every order
    equals the fsum reference bit for bit."""

    @pytest.mark.parametrize("name", sorted(SUMMATION_INPUTS))
    def test_every_pyramid_level_matches_fsum(self, name):
        pyramid = build_pyramid(SUMMATION_INPUTS[name])
        for n in pyramid.scales:
            series = pyramid.series[n]
            assert sample_cumulants(series, 6).tobytes() == \
                fsum_cumulants(series, 6).tobytes(), n

    @pytest.mark.parametrize("length", [1, 2, 3, 1000, 4097])
    def test_odd_lengths_match_fsum(self, length):
        # odd widths carry their last column up the tree
        x = np.random.default_rng(length).normal(size=length)
        order = min(length, 6)
        assert sample_cumulants(x, order).tobytes() == fsum_cumulants(x, order).tobytes()


def scalar_log2_abs(value):
    return math.log2(abs(value)) if value else -math.inf


def scalar_is_numerical_zero(value, variance, order=2):
    """The numerical-zero rule one scalar at a time, in math.log2."""
    return (scalar_log2_abs(value)
            <= math.log2(NUMERICAL_ZERO_REL) + order / 2.0 * scalar_log2_abs(variance))


def scalar_cell_usable(m, value, k2, blocks):
    """The usability rule one cell at a time, in Python floats."""
    if not math.isfinite(value) or scalar_is_numerical_zero(value, k2, m):
        return False
    noise = NOISE_FLOOR_SIGMAS * math.sqrt(math.factorial(m) / blocks)
    return m == 2 or scalar_log2_abs(value) >= math.log2(noise) + m / 2.0 * scalar_log2_abs(k2)


SPECIAL_CELLS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -3e-320,
                 1e-300, -1e-300, 1e300, -1e300]


def _random_cells(seed, levels, orders):
    """A (levels, orders) array of k_1, k_2, ... and blocks per level. Odd
    seeds draw magnitudes over the whole float range; even seeds put k_m
    near its noise floor 3 sqrt(m!/K) k2^(m/2). A third of the cells, k2's
    column included, are replaced by zeros, infinities, NaN, subnormals
    or 1e+-300."""
    rng = np.random.default_rng(seed)
    shape = (levels, orders)
    blocks = rng.integers(1, 2**20, levels)
    if seed % 2:
        ks = rng.standard_normal(shape) * 10.0 ** rng.uniform(-320, 300, shape)
    else:
        m = np.arange(1, orders + 1)
        k2 = 10.0 ** rng.uniform(-3, 3, (levels, 1))
        floor = 3.0 * np.sqrt(np.cumprod(m) / blocks[:, None]) * k2 ** (m / 2.0)
        ks = floor * rng.choice([-1.0, 1.0], shape) * 2.0 ** rng.uniform(-4, 4, shape)
        ks[:, 1:2] = k2
    special = rng.random(shape) < 1 / 3
    ks[special] = rng.choice(SPECIAL_CELLS, special.sum())
    return ks, blocks


def _table_inputs():
    """fGn and the cascade-modulated composite at 2^12 samples, and the
    fGn's 1365 block sums of 3 (every pyramid level padded to its slot)."""
    fgn = FgnSpec(0.8, 2**12, 1.0, 3)
    x = generate_fgn(fgn).samples
    return {"fgn_2p12": x, "aggregate_1365": aggregate(x, 3),
            "composite_2p12": generate_multifractal(fgn, CascadeSpec(12, 2.0, 1.0, 4)).samples}


TABLE_INPUTS = _table_inputs()


class TestSlotTable:
    """cumulant_scaling_table climbs every level's sums in one slot buffer;
    each cell is still the level's own k-statistic on its own tree, and
    its usability flag is the scalar rule's."""

    @pytest.mark.parametrize("max_order", [1, 2, 6])
    @pytest.mark.parametrize("name", sorted(TABLE_INPUTS))
    def test_every_cell_is_the_per_level_tree(self, name, max_order):
        pyramid = build_pyramid(TABLE_INPUTS[name])
        table = cumulant_scaling_table(pyramid, max_order)
        for n in pyramid.scales:
            ks = fsum_cumulants(pyramid.series[n], max(max_order, 2), tree_sum)
            for m in range(1, max_order + 1):
                assert np.float64(table.values[(m, n)]).tobytes() == ks[m - 1].tobytes(), (m, n)
                usable = scalar_cell_usable(m, ks[m - 1], ks[1], pyramid.series[n].size)
                assert table.usable[(m, n)] is usable, (m, n)


class TestUsableMask:
    """The table's usability mask and the elementwise is_numerical_zero
    agree, cell by cell, with the same rules applied one scalar at a time."""

    @pytest.mark.parametrize("seed", range(20))
    def test_mask_matches_scalar_rule(self, seed):
        ks, blocks = _random_cells(seed, 40, 6)
        mask = _usable_mask(ks, blocks)
        assert mask.shape == ks.shape and mask.dtype == bool
        expected = [[scalar_cell_usable(m, v, row[1], int(b)) for m, v in enumerate(row, start=1)]
                    for row, b in zip(ks.tolist(), blocks)]
        assert mask.tolist() == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_is_numerical_zero_matches_scalar_rule(self, seed):
        ks, _ = _random_cells(seed, 40, 6)
        variances = ks[:, 1]
        orders = np.arange(1, 7)
        flags = is_numerical_zero(ks, variances[:, None], orders)
        expected = [[scalar_is_numerical_zero(v, k2, m) for m, v in enumerate(row, start=1)]
                    for row, k2 in zip(ks.tolist(), variances.tolist())]
        assert flags.tolist() == expected

    def test_scalar_call_works_in_if(self):
        for value, variance, zero in [(1e-20, 1.0, True), (1.0, 1.0, False), (0.0, 0.0, True),
                                      (-0.0, 1.0, True), (math.nan, 1.0, False),
                                      (math.inf, math.inf, True), (1e-300, 1e300, True)]:
            flag = is_numerical_zero(value, variance)
            assert np.ndim(flag) == 0
            if flag:
                assert zero, (value, variance)
            else:
                assert not zero, (value, variance)
            assert bool(flag) == scalar_is_numerical_zero(value, variance)


class TestEmpiricalCgf:
    def test_zero_at_origin(self):
        rng = np.random.default_rng(2)
        assert empirical_cgf(rng.normal(size=100), 0.0) == 0.0

    def test_constant_series(self):
        assert empirical_cgf([1.0, 1.0, 1.0], 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_gaussian_cgf(self):
        # standard normal: g(t) = t^2 / 2
        rng = np.random.default_rng(3)
        x = rng.normal(size=10**6)
        assert empirical_cgf(x, 0.5) == pytest.approx(0.125, abs=0.01)

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="guard"):
            empirical_cgf([1000.0, -1000.0], 1.0)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError, match="^series must be nonempty$"):
            empirical_cgf([], 1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_t(self, t):
        """t is checked by the finite rule after the series rule, so nan
        is not reported as an overflowing sum, nor inf as the guard."""
        with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
            empirical_cgf([1.0, 2.0], t)
        with pytest.raises(ValueError, match="^series must be finite$"):
            empirical_cgf([1.0, np.nan], t)

    def test_sum_of_terms_overflow_refused(self):
        """Each exp(t*x) passes the exponent guard, but 2^17 of them sum
        past float64: the sum rule refuses it by name, with no numpy
        warning and no nan. Below the limit the terms still sum exactly."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sums overflow float64"):
                empirical_cgf(np.full(2**17, 1.0), 699.0)
            assert empirical_cgf(np.full(2**10, 1.0), 699.0) == 699.0

    def test_finite_difference_matches_k_statistics(self):
        """Central differences of the empirical CGF at 0 reproduce the
        first three cumulant estimates (up to O(1/n) estimator bias and
        O(h^2) truncation)."""
        rng = np.random.default_rng(4)
        x = rng.exponential(size=10**4)
        ks = sample_cumulants(x, 3)
        h = 1e-2
        g = {s: empirical_cgf(x, s * h) for s in (-2, -1, 0, 1, 2)}
        fd1 = (g[1] - g[-1]) / (2 * h)
        fd2 = (g[1] - 2 * g[0] + g[-1]) / h**2
        fd3 = (g[2] - 2 * g[1] + 2 * g[-1] - g[-2]) / (2 * h**3)
        for fd, km in zip((fd1, fd2, fd3), ks):
            assert fd == pytest.approx(km, rel=0.01, abs=1e-4)


class TestCumulantScalingTable:
    def test_constant_trace_rows(self):
        x = np.full(2**8, 1.5)
        table = cumulant_scaling_table(build_pyramid(x), 4)
        for n in (1, 2, 4, 8, 16):
            assert table.values[(1, n)] == pytest.approx(1.5 * n, rel=1e-12)
            for m in (2, 3, 4):
                assert table.values[(m, n)] == 0.0
                assert not table.usable[(m, n)]

    def test_block_counts(self):
        x = np.random.default_rng(0).normal(size=2**10)
        table = cumulant_scaling_table(build_pyramid(x), 2)
        assert table.block_counts == {2**e: 2**(10 - e) for e in range(8)}

    def test_iid_gaussian_variance_slope(self):
        x = np.random.default_rng(6).normal(size=2**16)
        table = cumulant_scaling_table(build_pyramid(x), 2)
        scales = [2**e for e in range(9)]
        log_n = [np.log2(n) for n in scales]
        log_k2 = [np.log2(table.values[(2, n)]) for n in scales]
        slope = np.polyfit(log_n, log_k2, 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_gaussian_odd_cumulants_flagged(self):
        # order-3 cells of a Gaussian trace sit inside the noise floor
        x = np.random.default_rng(7).normal(size=2**14)
        table = cumulant_scaling_table(build_pyramid(x), 3)
        usable3 = [n for n in table.scales if table.usable[(3, n)]]
        assert len(usable3) < 3

    def test_variance_cells_never_flagged_on_noise(self):
        x = np.random.default_rng(8).normal(size=2**12)
        table = cumulant_scaling_table(build_pyramid(x), 2)
        assert all(table.usable[(2, n)] for n in table.scales)

    def test_cumulant_beyond_float_range_unusable(self):
        """k6 of 1e60-scale data (~1e360) is infinite: unusable, and no
        overflow warning on the way (RuntimeWarnings are errors here)."""
        x = 1e60 * np.random.default_rng(10).standard_exponential(2**10)
        table = cumulant_scaling_table(build_pyramid(x), 6)
        for n in (1, 2, 4):
            assert np.isinf(table.values[(6, n)])
            assert not table.usable[(6, n)]
            assert table.usable[(2, n)]

    def test_rejects_bad_order(self):
        pyramid = build_pyramid(np.random.default_rng(9).normal(size=64))
        with pytest.raises(ValueError):
            cumulant_scaling_table(pyramid, 7)
