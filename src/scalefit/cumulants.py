"""Sample cumulants (unbiased k-statistics) and the empirical
cumulant-generating function.

k-statistics are the unique symmetric unbiased estimators of the
cumulants of the sampled distribution; unbiasedness matters here
because coarse aggregation scales leave very few blocks. Orders are
capped at 6 because the estimator variance grows factorially with the
order.

Central power sums are computed with exact (fsum) accumulation after
pre-centering by the sample mean, which controls cancellation and
makes negation parity exact: negating the input negates k1, k3, k5
bitwise and leaves k2, k4, k6 bitwise unchanged. The centred sample is
scaled by a power of two to unit magnitude first, so the power sums
cannot overflow; the scaling is exact and is undone on the results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scaling import ScalingDiagram

MAX_ORDER = 6
DEFAULT_ORDER = 4

# A table cell is unusable for log-log regression when it is
# numerically zero relative to the scale set by the variance, or
# statistically indistinguishable from zero against the i.i.d.
# Gaussian noise floor sd(k_m) ~ sqrt(m!/K) * k2^{m/2}. The second
# test never applies to order 2 (a variance is only "zero" for
# degenerate data, which the first test catches).
NUMERICAL_ZERO_REL = 1e-12
NOISE_FLOOR_SIGMAS = 3.0


def sample_cumulants(series, max_order: int = DEFAULT_ORDER) -> np.ndarray:
    """Unbiased k-statistics k_1 .. k_max_order of a sample."""
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be in 1..{MAX_ORDER}, got {max_order}")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = x.size
    # k_m is defined for n >= m (all unbiasing denominators nonzero)
    if n < max_order or n == 0:
        raise ValueError(f"series of length {n} is too short for order {max_order}")
    mean = math.fsum(x) / n
    out = np.empty(max_order)
    out[0] = mean
    if max_order == 1:
        return out
    d = x - mean
    _, exponent = np.frexp(np.abs(d).max())
    d = np.ldexp(d, -exponent)
    # explicit multiplication chain: exactly rounded per step and
    # odd-symmetric under negation, unlike libm pow
    s = {}
    power = d
    for r in range(2, max_order + 1):
        power = power * d
        s[r] = math.fsum(power)
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
    out[1:] = np.ldexp(out[1:], exponent * np.arange(2, max_order + 1))
    return out


CGF_EXPONENT_LIMIT = 700.0


def empirical_cgf(series, t: float) -> float:
    """log of the sample mean of exp(t*x); exactly 0 at t = 0.

    Derivatives of this function at 0 are the cumulants of the
    empirical distribution (the biased sample cumulants); they differ
    from the unbiased k-statistics by O(1/n) terms.
    """
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("series must be nonempty")
    if abs(t) * np.abs(x).max() > CGF_EXPONENT_LIMIT:
        raise ValueError(
            f"|t| * max|x| = {abs(t) * np.abs(x).max():.3g} exceeds the overflow "
            f"guard {CGF_EXPONENT_LIMIT}"
        )
    return math.log(math.fsum(np.exp(t * x)) / x.size)


@dataclass
class CumulantTable:
    """k-statistics of every pyramid level, with usability flags.

    values[(m, n)] is the order-m k-statistic of the scale-n series;
    usable[(m, n)] is False where the cell cannot enter a log-log
    regression (numerically or statistically zero).
    """

    orders: tuple
    scales: tuple
    values: dict
    block_counts: dict
    usable: dict

    def usable_scales(self, m: int) -> list:
        return [n for n in self.scales if self.usable[(m, n)]]

    def scaling_diagram(self, m: int) -> ScalingDiagram:
        """log2|k_m| against log2 n, unweighted; H = slope / m."""
        if m not in self.orders:
            raise ValueError(f"order {m} not present in table (orders {self.orders})")
        values = np.abs([self.values[(m, n)] for n in self.scales])
        usable = np.array([self.usable[(m, n)] for n in self.scales], dtype=bool)
        return ScalingDiagram(
            label=f"order {m}",
            octaves=np.log2(np.array(self.scales, dtype=float)),
            log2_stat=np.log2(values, out=np.full(values.size, np.nan), where=usable),
            weights=None,
            usable=usable,
            shift=0.0,
            divisor=float(m),
        )


def _cell_usable(m: int, value: float, k2: float, blocks: int) -> bool:
    if abs(value) <= NUMERICAL_ZERO_REL * k2 ** (m / 2.0):
        return False
    if m != 2:
        floor = NOISE_FLOOR_SIGMAS * math.sqrt(math.factorial(m) / blocks) * k2 ** (m / 2.0)
        if abs(value) < floor:
            return False
    return True


def cumulant_scaling_table(pyramid, max_order: int = DEFAULT_ORDER) -> CumulantTable:
    """Estimate k_1..k_max_order at every aggregation scale."""
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be in 1..{MAX_ORDER}, got {max_order}")
    values = {}
    usable = {}
    block_counts = {}
    for n in pyramid.scales:
        series = pyramid.series[n]
        # order 2 always computed: it sets the usability reference scale
        ks = sample_cumulants(series, max(max_order, 2))
        block_counts[n] = series.size
        for m in range(1, max_order + 1):
            values[(m, n)] = float(ks[m - 1])
            usable[(m, n)] = _cell_usable(m, ks[m - 1], ks[1], series.size)
    return CumulantTable(
        orders=tuple(range(1, max_order + 1)),
        scales=tuple(pyramid.scales),
        values=values,
        block_counts=block_counts,
        usable=usable,
    )
