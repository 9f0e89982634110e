"""Sample cumulants (unbiased k-statistics) and the empirical
cumulant-generating function.

k-statistics are the unique symmetric unbiased estimators of the
cumulants of the sampled distribution; unbiasedness matters here
because coarse aggregation scales leave very few blocks. Orders are
capped at 6 because the estimator variance grows factorially with the
order.

The mean and the central power sums are summed by aggregate.row_sums,
the package's one compensated rule (a pairwise TwoSum tree, as accurate
as summing in twice the working precision and rounding once), every
order of a sample in one call. Pre-centering by the sample mean
controls cancellation. Round-to-nearest is odd-symmetric, so the tree
makes negation parity exact: negating the input negates k1, k3, k5
bitwise and leaves k2, k4, k6 bitwise unchanged. The centred sample is
scaled by a power of two to unit magnitude first, so the power sums
cannot overflow; the scaling is exact and is undone on the results.

check_order owns the order range 1..MAX_ORDER, and is_numerical_zero
the numerical-zero test of both estimators, made in log2 against a
centred second moment so that it cannot overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregate import row_sums
from .scaling import ScalingDiagram

MAX_ORDER = 6
DEFAULT_ORDER = 4

# A table cell is unusable for log-log regression when it is not
# finite, numerically zero against k2, or, for orders other than 2 (a
# variance is zero only on degenerate data), below NOISE_FLOOR_SIGMAS
# times the i.i.d. Gaussian noise floor sd(k_m) ~ sqrt(m!/K) * k2^{m/2}.
NUMERICAL_ZERO_REL = 1e-12
NOISE_FLOOR_SIGMAS = 3.0


def check_order(order, name: str = "max_order") -> None:
    """Cumulant orders run from 1 to MAX_ORDER."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"{name} must be in 1..{MAX_ORDER}, got {order}")


def _log2_abs(value: float) -> float:
    return math.log2(abs(value)) if value else -math.inf


def is_numerical_zero(value: float, variance: float, order: int = 2) -> bool:
    """The numerical-zero rule of both estimators: |value| <=
    NUMERICAL_ZERO_REL * variance**(order/2), variance being a centred
    second moment, compared in log2 so that it cannot overflow."""
    return _log2_abs(value) <= math.log2(NUMERICAL_ZERO_REL) + order / 2.0 * _log2_abs(variance)


def sample_cumulants(series, max_order: int = DEFAULT_ORDER) -> np.ndarray:
    """Unbiased k-statistics k_1 .. k_max_order of a sample."""
    check_order(max_order)
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = x.size
    # k_m is defined for n >= m (all unbiasing denominators nonzero)
    if n < max_order:
        raise ValueError(f"series of length {n} is too short for order {max_order}")
    mean = float(row_sums(x[None, :])[0]) / n
    out = np.empty(max_order)
    out[0] = mean
    if max_order == 1:
        return out
    d = x - mean
    _, exponent = np.frexp(np.abs(d).max())
    d = np.ldexp(d, -exponent)
    # rows d**2 .. d**max_order by an explicit multiplication chain: exactly
    # rounded per step and odd-symmetric under negation, unlike libm pow
    powers = np.empty((max_order - 1, n))
    powers[0] = d * d
    for row in range(1, max_order - 1):
        np.multiply(powers[row - 1], d, out=powers[row])
    s = dict(enumerate(row_sums(powers).tolist(), start=2))
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
    # a cumulant beyond the float range scales back to inf, which is the
    # intended value: cumulant_scaling_table marks it unusable
    with np.errstate(over="ignore"):
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
    return math.log(float(row_sums(np.exp(t * x).reshape(1, -1))[0]) / x.size)


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
    if not math.isfinite(value) or is_numerical_zero(value, k2, m):
        return False
    noise = NOISE_FLOOR_SIGMAS * math.sqrt(math.factorial(m) / blocks)
    return m == 2 or _log2_abs(value) >= math.log2(noise) + m / 2.0 * _log2_abs(k2)


def cumulant_scaling_table(pyramid, max_order: int = DEFAULT_ORDER) -> CumulantTable:
    """Estimate k_1..k_max_order at every aggregation scale."""
    check_order(max_order)
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
