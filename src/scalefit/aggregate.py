"""Block aggregation of increment traces over non-overlapping windows.

aggregate(x, n)[k] sums block k of n consecutive samples; trailing
samples that do not fill a block are dropped. One summation rule,
row_sums, serves both the block sums here and the k-statistic power
sums in cumulants: a pairwise tree of error-free TwoSum steps that
carries every step's rounding error up the tree (the pairwise form of
Sum2 in Ogita, Rump & Oishi, "Accurate sum and dot product", SIAM J.
Sci. Comput. 2005). A sum is as accurate as if summed in twice the
working precision and then rounded once, so totals are bit-stable and
mass is preserved to within a couple of ulps. Level j+1 of the tree
pairs adjacent sums of level j, so build_pyramid forms scale 2n from
scale n's (sum, error) pair and equals aggregate(x, 2**k) bit for bit.
check_sums_fit is the overflow rule of the three places that sum raw
samples: aggregate, build_pyramid and wavelet.logscale_diagram.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_samples(trace_or_samples) -> np.ndarray:
    samples = getattr(trace_or_samples, "samples", trace_or_samples)
    return np.asarray(samples, dtype=float)


def _pair_sums(total: np.ndarray, error: np.ndarray | None):
    """One level of the pairwise tree over the last axis.

    Adjacent columns (0, 1), (2, 3), ... are added by TwoSum (Knuth),
    whose rounding error joins the pair's carried errors; an odd last
    column carries to the next level unchanged. error None means all
    carried errors are zero (the samples themselves).
    """
    even = total.shape[-1] - total.shape[-1] % 2
    a, b = total[..., 0:even:2], total[..., 1:even:2]
    s = a + b
    b_virtual = s - a
    rounding = (a - (s - b_virtual)) + (b - b_virtual)
    if error is not None:
        rounding += error[..., 0:even:2] + error[..., 1:even:2]
    if even < total.shape[-1]:
        s = np.concatenate([s, total[..., even:]], axis=-1)
        carried = np.zeros_like(total[..., even:]) if error is None else error[..., even:]
        rounding = np.concatenate([rounding, carried], axis=-1)
    return s, rounding


def row_sums(rows: np.ndarray) -> np.ndarray:
    """Row sums of a (num_rows, width) array, width >= 1, by the pairwise
    tree: aggregate's block sums and cumulants' k-statistic power sums."""
    total, error = _pair_sums(rows, None)
    while total.shape[-1] > 1:
        total, error = _pair_sums(total, error)
    return (total + error)[:, 0]


# float64's largest value over 16: headroom for the steps that follow a
# sum (TwoSum's differences, the wavelet diagram's centring and filters)
SUM_LIMIT = 2.0**1020


def check_sums_fit(samples: np.ndarray) -> None:
    """The overflow rule of the raw-sample sums: sum |x| must be below
    SUM_LIMIT. It bounds every block sum, mean and partial sum that
    aggregate, build_pyramid, the k-statistics and the wavelet diagram
    take, so a trace that passes makes none of them overflow float64."""
    with np.errstate(over="ignore"):
        total = float(np.sum(np.abs(samples)))
    if not total < SUM_LIMIT:
        raise ValueError(f"the trace's sums overflow float64: sum |x| = {total:.3g} "
                         f"is not below {SUM_LIMIT:.3g}")


def check_block_size(n) -> None:
    """Block sizes are positive integers."""
    if n < 1 or int(n) != n:
        raise ValueError(f"block size must be a positive integer, got {n}")


def aggregate(trace_or_samples, n: int) -> np.ndarray:
    """Sum non-overlapping blocks of size n; remainder samples dropped.
    The samples' sums must fit float64 (check_sums_fit)."""
    x = _as_samples(trace_or_samples)
    check_block_size(n)
    if n > x.size:
        raise ValueError(f"block size {n} exceeds trace length {x.size}")
    check_sums_fit(x)
    n = int(n)
    num_blocks = x.size // n
    if n == 1:
        return x[:num_blocks].copy()
    return row_sums(x[: num_blocks * n].reshape(num_blocks, n))


# blocks (or wavelet coefficients) kept at the coarsest scale
MIN_BLOCKS = 8


@dataclass
class AggregatePyramid:
    """Family of aggregated series indexed by ascending block size."""

    scales: tuple
    series: dict
    source_length: int


def dyadic_scales(length: int) -> list:
    """Default scale set: 2**0 up to the coarsest power of two that still
    leaves MIN_BLOCKS blocks (2**0 alone for a shorter trace)."""
    return [2**e for e in range(max((int(length) // MIN_BLOCKS).bit_length(), 1))]


def build_pyramid(trace_or_samples, scales=None) -> AggregatePyramid:
    """Aggregate a trace at every requested scale (default: dyadic).

    Every scale must leave at least MIN_BLOCKS full blocks, and the
    samples' sums must fit float64 (check_sums_fit). Scale 1, when
    present, maps to the source samples themselves. Power-of-two scales
    come from one pass up the pairwise tree, each level formed from the
    one below (the same steps aggregate takes); other scales are summed
    by aggregate.
    """
    x = _as_samples(trace_or_samples)
    check_sums_fit(x)
    if scales is None:
        scales = dyadic_scales(x.size)
    scales = sorted({int(s) for s in scales})
    if not scales:
        raise ValueError("scales must be nonempty")
    for n in scales:
        check_block_size(n)
        if x.size // n < MIN_BLOCKS:
            raise ValueError(
                f"scale {n} leaves {x.size // n} blocks of a length-{x.size} trace; "
                f"at least {MIN_BLOCKS} are required"
            )
    series = {n: aggregate(x, n) for n in scales if n == 1 or n & (n - 1)}
    dyadic = [n for n in scales if n not in series]
    # (sum, error) pair of every block of scale n; an odd last block is
    # dropped before pairing, as aggregate drops the remainder
    total, error, n = x, None, 1
    while dyadic and n < dyadic[-1]:
        even = total.size - total.size % 2
        total, error = _pair_sums(total[:even], None if error is None else error[:even])
        n *= 2
        if n in dyadic:
            series[n] = total + error
    return AggregatePyramid(scales=tuple(scales), series=series, source_length=x.size)
