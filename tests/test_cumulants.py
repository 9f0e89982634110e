import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefit.aggregate import build_pyramid
from scalefit.cumulants import (
    cumulant_scaling_table,
    empirical_cgf,
    sample_cumulants,
)


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
        table = cumulant_scaling_table(build_pyramid(x, [1, 2, 4, 8, 16]), 4)
        for n in (1, 2, 4, 8, 16):
            assert table.values[(1, n)] == pytest.approx(1.5 * n, rel=1e-12)
            for m in (2, 3, 4):
                assert table.values[(m, n)] == 0.0
                assert not table.usable[(m, n)]

    def test_block_counts(self):
        x = np.random.default_rng(0).normal(size=2**10)
        table = cumulant_scaling_table(build_pyramid(x, [1, 2, 4]), 2)
        assert table.block_counts == {1: 2**10, 2: 2**9, 4: 2**8}

    def test_iid_gaussian_variance_slope(self):
        x = np.random.default_rng(6).normal(size=2**16)
        table = cumulant_scaling_table(build_pyramid(x, [2**e for e in range(9)]), 2)
        log_n = [np.log2(n) for n in table.scales]
        log_k2 = [np.log2(table.values[(2, n)]) for n in table.scales]
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
        table = cumulant_scaling_table(build_pyramid(x, [1, 2, 4]), 6)
        for n in table.scales:
            assert np.isinf(table.values[(6, n)])
            assert not table.usable[(6, n)]
            assert table.usable[(2, n)]

    def test_rejects_bad_order(self):
        pyramid = build_pyramid(np.random.default_rng(9).normal(size=64), [1])
        with pytest.raises(ValueError):
            cumulant_scaling_table(pyramid, 7)
