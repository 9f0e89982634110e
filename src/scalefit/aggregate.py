"""Block aggregation of increment traces over non-overlapping windows.

aggregate(x, n)[k] sums block k of n consecutive samples; trailing
samples that do not fill a block are dropped. Block sums use Neumaier
compensated accumulation in a fixed left-to-right order, so totals are
bit-stable and mass is preserved to within a couple of ulps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_samples(trace_or_samples) -> np.ndarray:
    samples = getattr(trace_or_samples, "samples", trace_or_samples)
    return np.asarray(samples, dtype=float)


def _compensated_block_sums(blocks: np.ndarray) -> np.ndarray:
    """Neumaier-compensated row sums of a (num_blocks, n) array."""
    total = np.zeros(blocks.shape[0])
    comp = np.zeros(blocks.shape[0])
    for j in range(blocks.shape[1]):
        v = blocks[:, j]
        t = total + v
        comp += np.where(np.abs(total) >= np.abs(v), (total - t) + v, (v - t) + total)
        total = t
    return total + comp


def check_block_size(n) -> None:
    """Block sizes are positive integers."""
    if n < 1 or int(n) != n:
        raise ValueError(f"block size must be a positive integer, got {n}")


def aggregate(trace_or_samples, n: int) -> np.ndarray:
    """Sum non-overlapping blocks of size n; remainder samples dropped."""
    x = _as_samples(trace_or_samples)
    check_block_size(n)
    if n > x.size:
        raise ValueError(f"block size {n} exceeds trace length {x.size}")
    n = int(n)
    num_blocks = x.size // n
    if n == 1:
        return x[:num_blocks].copy()
    return _compensated_block_sums(x[: num_blocks * n].reshape(num_blocks, n))


# blocks (or wavelet coefficients) kept at the coarsest scale
MIN_BLOCKS = 8


@dataclass
class AggregatePyramid:
    """Family of aggregated series indexed by ascending block size."""

    scales: tuple
    series: dict
    source_length: int

    def __iter__(self):
        return iter(self.scales)


def dyadic_scales(length: int) -> list:
    """Default scale set: 2**0 up to the coarsest power of two that still
    leaves MIN_BLOCKS blocks (2**0 alone for a shorter trace)."""
    return [2**e for e in range(max((int(length) // MIN_BLOCKS).bit_length(), 1))]


def build_pyramid(trace_or_samples, scales=None) -> AggregatePyramid:
    """Aggregate a trace at every requested scale (default: dyadic).

    Every scale must leave at least MIN_BLOCKS full blocks. Scale 1, when
    present, maps to the source samples themselves.
    """
    x = _as_samples(trace_or_samples)
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
    series = {n: aggregate(x, n) for n in scales}
    return AggregatePyramid(scales=tuple(scales), series=series, source_length=x.size)
