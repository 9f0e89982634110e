"""Sample cumulants (unbiased k-statistics) and the empirical
cumulant-generating function.

k-statistics are the unique symmetric unbiased estimators of the
cumulants of the sampled distribution; unbiasedness matters here
because coarse aggregation scales leave very few blocks. Orders are
capped at 6 because the estimator variance grows factorially with the
order.

The mean and the central power sums are summed by aggregate.climb, the
package's one compensated rule (a pairwise TwoSum tree, as accurate as
summing in twice the working precision and rounding once). Every
pyramid level of a table is zero-padded into one power-of-two slot of
one flat buffer, widest first (aggregate.pack_slots), and the whole
buffer is climbed once for the means and then once per power order,
each slot read at the tree level where it is one column: at most
max_order x log2 N tree levels per table, 48 at 2^12 for order 4.
TwoSum against a zero pad is exact, so each level's sums are those of
its own tree bit for bit; sample_cumulants is the one-level case.

Pre-centering by each level's mean controls cancellation.
Round-to-nearest is odd-symmetric, so the tree makes negation parity
exact: negating the input negates k1, k3, k5 bitwise and leaves k2, k4,
k6 bitwise unchanged. Each centred level is scaled by a power of two to
unit magnitude first, so the power sums cannot overflow; the scaling is
exact and is undone on the results.

check_order owns the order range 1..MAX_ORDER. The usability rule is
elementwise: one boolean mask over the (levels, orders) array of
k-statistics, whose numerical-zero test is scaling.is_numerical_zero
against the k2 column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregate import aggregate, check_samples, check_squares_fit, climb, pack_slots
from .rng import check_integer
from .scaling import ScalingDiagram, check_finite, is_numerical_zero

MAX_ORDER = 6
DEFAULT_ORDER = 4

# A table cell is unusable for log-log regression when it is not
# finite, numerically zero against k2 (scaling.is_numerical_zero), or,
# for orders other than 2 (a variance is zero only on degenerate data),
# below NOISE_FLOOR_SIGMAS times the i.i.d. Gaussian noise floor
# sd(k_m) ~ sqrt(m!/K) * k2^{m/2}.
NOISE_FLOOR_SIGMAS = 3.0


def check_order(order, name: str = "max_order") -> int:
    """Cumulant orders run from 1 to MAX_ORDER."""
    return check_integer(order, name, lambda m: 1 <= m <= MAX_ORDER, f"in 1..{MAX_ORDER}")


def _k_statistics(s: dict, n: int, max_order: int) -> list:
    """k_2 .. k_max_order of a sample of n from its central power sums s[r]."""
    # Python floats, one level at a time, not arrays: the squares and cubes
    # below are libm pow, and numpy's x**2 and x**3 round differently on about
    # 0.1 % and 3-5 % of doubles (glibc 2.36, numpy 2.4), so arrays would move
    # the table's pinned digits
    nn = float(n)
    out = [s[2] / (nn - 1)]
    if max_order >= 3:
        out.append(nn * s[3] / ((nn - 1) * (nn - 2)))
    if max_order >= 4:
        out.append((nn * (nn + 1) * s[4] - 3 * (nn - 1) * s[2] ** 2) / (
            (nn - 1) * (nn - 2) * (nn - 3)
        ))
    if max_order >= 5:
        out.append((nn**2 * (nn + 5) * s[5] - 10 * nn * (nn - 1) * s[2] * s[3]) / (
            (nn - 1) * (nn - 2) * (nn - 3) * (nn - 4)
        ))
    if max_order >= 6:
        num = (
            nn * (nn + 1) * (nn * nn + 15 * nn - 4) * s[6]
            - 15 * (nn - 1) ** 2 * (nn + 4) * s[2] * s[4]
            - 10 * (nn - 1) * (nn * nn - nn + 4) * s[3] ** 2
            + 30 * (nn - 1) * (nn - 2) * s[2] ** 3
        )
        out.append(num / ((nn - 1) * (nn - 2) * (nn - 3) * (nn - 4) * (nn - 5)))
    return out


def _slot_cumulants(samples: list, max_order: int) -> np.ndarray:
    """k_1 .. k_max_order of each 1-D sample (widest first), one row each.

    The samples share one slot buffer (aggregate.pack_slots), climbed
    once for the means and then once per power order: the buffer is
    centred and scaled in place, and one power buffer is rewritten
    with d**p by the multiplication chain before each climb.
    """
    sizes = [x.size for x in samples]
    # k_m is defined for n >= m (all unbiasing denominators nonzero)
    for n in sizes:
        if n < max_order:
            raise ValueError(f"series of length {n} is too short for order {max_order}")
    d, slots = pack_slots(samples)
    out = np.empty((len(samples), max_order))
    out[:, 0] = climb(d, slots) / sizes
    if max_order == 1:
        return out
    offsets = np.cumsum([0, *slots[:-1]])
    for offset, n, mean in zip(offsets.tolist(), sizes, out[:, 0]):
        d[offset:offset + n] -= mean
    # pads stay 0: they neither raise a maximum nor add to a power sum
    _, exponents = np.frexp(np.maximum.reduceat(np.abs(d), offsets))
    np.ldexp(d, np.repeat(-exponents, slots), out=d)
    # powers d**2 .. d**max_order by an explicit multiplication chain: exactly
    # rounded per step and odd-symmetric under negation, unlike libm pow
    power = d * d
    sums = [climb(power, slots)]
    for _ in range(3, max_order + 1):
        np.multiply(power, d, out=power)
        sums.append(climb(power, slots))
    for row, (n, s) in enumerate(zip(sizes, np.array(sums).T.tolist())):
        out[row, 1:] = _k_statistics(dict(enumerate(s, start=2)), n, max_order)
    # a cumulant beyond the float range scales back to inf, which is the
    # intended value: cumulant_scaling_table marks it unusable
    with np.errstate(over="ignore"):
        out[:, 1:] = np.ldexp(out[:, 1:], exponents[:, None] * np.arange(2, max_order + 1))
    return out


def sample_cumulants(series, max_order: int = DEFAULT_ORDER) -> np.ndarray:
    """Unbiased k-statistics k_1 .. k_max_order of a series that passes
    aggregate.check_samples: the one-slot case of cumulant_scaling_table's
    climb."""
    check_order(max_order)
    return _slot_cumulants([check_samples(series)], max_order)[0]


CGF_EXPONENT_LIMIT = 700.0


def empirical_cgf(series, t: float) -> float:
    """log of the sample mean of exp(t*x); exactly 0 at t = 0.

    Derivatives of this function at 0 are the cumulants of the
    empirical distribution (the biased sample cumulants); they differ
    from the unbiased k-statistics by O(1/n) terms. The series must pass
    aggregate.check_samples, and t must be finite. Each exp(t*x) must
    be at most exp(CGF_EXPONENT_LIMIT), and their sum, aggregate's sum of
    one block, must fit float64 (aggregate.check_sums_fit).
    """
    x = check_samples(series)
    check_finite(t, "t")
    if abs(t) * np.abs(x).max() > CGF_EXPONENT_LIMIT:
        raise ValueError(
            f"|t| * max|x| = {abs(t) * np.abs(x).max():.3g} exceeds the overflow "
            f"guard {CGF_EXPONENT_LIMIT}"
        )
    terms = np.exp(t * x)
    return math.log(float(aggregate(terms, terms.size)[0]) / x.size)


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

    def scaling_diagram(self, m: int) -> ScalingDiagram:
        """log2|k_m| against log2 n, unweighted, with unusable cells NaN;
        H = slope / m."""
        m = check_integer(m, "order", lambda k: k in self.orders,
                          f"one of the table's orders {self.orders}")
        values = np.abs([self.values[(m, n)] for n in self.scales])
        usable = np.array([self.usable[(m, n)] for n in self.scales], dtype=bool)
        return ScalingDiagram(
            label=f"order {m}",
            octaves=np.log2(np.array(self.scales, dtype=float)),
            log2_stat=np.log2(values, out=np.full(values.size, np.nan), where=usable),
            weights=None,
            shift=0.0,
            divisor=float(m),
        )


def _usable_mask(ks: np.ndarray, blocks) -> np.ndarray:
    """Usability (see NOISE_FLOOR_SIGMAS) of every cell of a (levels, orders)
    array of k_1, k_2, ..., from each level's block count."""
    orders = np.arange(1, ks.shape[1] + 1)
    k2 = ks[:, 1:2]
    noise = NOISE_FLOOR_SIGMAS * np.sqrt(np.cumprod(orders) / np.asarray(blocks)[:, None])
    with np.errstate(divide="ignore"):
        above_noise = np.log2(np.abs(ks)) >= np.log2(noise) + orders / 2.0 * np.log2(np.abs(k2))
    return np.isfinite(ks) & ~is_numerical_zero(ks, k2, orders) & ((orders == 2) | above_noise)


def cumulant_scaling_table(pyramid, max_order: int = DEFAULT_ORDER) -> CumulantTable:
    """Estimate k_1..k_max_order at every aggregation scale. The finest
    level's centred squares must fit float64 (aggregate.check_squares_fit),
    judged on its k2 x (n - 1), the compensated sum of squares of the
    climb, before any cell is built."""
    check_order(max_order)
    orders = tuple(range(1, max_order + 1))
    block_counts = {n: pyramid.series[n].size for n in pyramid.scales}
    # order 2 always computed: it sets the usability reference scale
    table = _slot_cumulants([pyramid.series[n] for n in pyramid.scales], max(max_order, 2))
    # the finest level's k2 x (n - 1) is its climb's compensated sum of squares
    check_squares_fit(float(table[0, 1]) * (block_counts[pyramid.scales[0]] - 1))
    usable = _usable_mask(table, list(block_counts.values()))[:, :max_order]
    # keys (m, n) in the table's row-major order: scale outer, order inner
    cells = list(zip(orders * len(pyramid.scales), np.repeat(pyramid.scales, max_order).tolist()))
    return CumulantTable(
        orders=orders,
        scales=tuple(pyramid.scales),
        values=dict(zip(cells, table[:, :max_order].ravel().tolist())),
        block_counts=block_counts,
        usable=dict(zip(cells, usable.ravel().tolist())),
    )
