"""Block aggregation of increment traces over non-overlapping windows.

aggregate(x, n)[k] sums block k of n consecutive samples; trailing
samples that do not fill a block are dropped. One summation rule serves
both the block sums here and the k-statistic power sums in cumulants: a
pairwise tree of error-free TwoSum steps that carries every step's
rounding error up the tree (the pairwise form of Sum2 in Ogita, Rump &
Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 2005). A
sum is as accurate as if summed in twice the working precision and then
rounded once, so totals are bit-stable and mass is preserved to within
a couple of ulps.

The tree has one shape: a level sums complete pairs of adjacent
columns (_pair_sums), and an odd last column is dropped, never carried.
climb walks it once for many rows of different widths: each row is
zero-padded to a power-of-two slot, the slots lie widest first in one
flat buffer, and the whole buffer goes up level by level. A slot is
read at the level where it is one column; from there on its column
only pairs with other finished columns, or is dropped, and is never
read again. TwoSum against a zero pad returns the operand and a zero
error exactly, so a padded slot sums as the unpadded row's own tree
would. aggregate is the one-slot climb of its (blocks, n) rows, padded
only when n is not a power of two.

build_pyramid is a prefix of the same tree over the whole trace, at
the dyadic scales its length allows (dyadic_scales): scale 1 is a copy
of the samples, scale 2n is formed from scale n's (sum, error) pair,
and each power-of-two level equals aggregate(x, 2**k) bit for bit.
The package's rules on a series live here too: check_samples is the
series rule (one-dimensional, nonempty, finite) that every function
taking a series applies first, and check_sums_fit and check_squares_fit
are the overflow rules of the raw sums and of the centred squares the
package takes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import check_integer


def check_samples(trace_or_samples) -> np.ndarray:
    """The series rule: a Trace's samples, or the given array, as floats,
    which must be one-dimensional, nonempty and all finite."""
    x = np.asarray(getattr(trace_or_samples, "samples", trace_or_samples), dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if x.size == 0:
        raise ValueError("series must be nonempty")
    if not np.isfinite(x).all():
        raise ValueError("series must be finite")
    return x


def _pair_sums(total: np.ndarray, error: np.ndarray | None):
    """One level of the pairwise tree over the last axis.

    Adjacent columns (0, 1), (2, 3), ... are added by TwoSum (Knuth),
    whose rounding error joins the pair's carried errors; an odd last
    column is dropped. error None means all carried errors are zero
    (the samples themselves). A level allocates its sums, its errors
    and one scratch array; every other step writes into them.
    """
    even = total.shape[-1] - total.shape[-1] % 2
    a, b = total[..., 0:even:2], total[..., 1:even:2]
    s = a + b
    b_virtual = s - a
    # rounding = (a - (s - b_virtual)) + (b - b_virtual), then += the carried
    # errors' pair sum, each step written into rounding or b_virtual
    rounding = s - b_virtual
    np.subtract(a, rounding, out=rounding)
    np.subtract(b, b_virtual, out=b_virtual)
    rounding += b_virtual
    if error is not None:
        np.add(error[..., 0:even:2], error[..., 1:even:2], out=b_virtual)
        rounding += b_virtual
    return s, rounding


def _slot_width(n: int) -> int:
    """The slot of an n-wide row: the next power of two, at least 2, so
    that every slot takes at least one tree level."""
    return max(2, 1 << (n - 1).bit_length())


def pack_slots(rows) -> tuple:
    """(buffer, slots): 1-D rows, widest first, each zero-padded to its
    slot (_slot_width) and laid end to end in one flat buffer, as climb
    takes them."""
    slots = [_slot_width(row.size) for row in rows]
    buffer = np.zeros(sum(slots))
    offset = 0
    for row, slot in zip(rows, slots):
        buffer[offset:offset + row.size] = row
        offset += slot
    return buffer, slots


def climb(buffer: np.ndarray, slots) -> np.ndarray:
    """Sums of the slots that tile buffer's last axis, by the pairwise tree.

    slots are the slot widths, powers of two of at least 2, widest first,
    so every slot starts at a multiple of its own width and no pair
    crosses two slots. The whole buffer climbs; the slots are read
    narrowest first, each at the level where it is one column (index
    start // width), as that column's sum + error. The slots still
    climbing always span an even number of columns, so a finished
    column never pairs with theirs. Returns the sums, one per slot,
    over buffer's leading axes.
    """
    if any(slot < 2 or slot & (slot - 1) or slot > wider
           for wider, slot in zip([*slots[:1], *slots], slots)):
        raise ValueError(f"slots must be powers of two of at least 2, widest first, got {slots}")
    sums = np.empty(buffer.shape[:-1] + (len(slots),))
    total, error, width, end = buffer, None, 1, sum(slots)
    for i in reversed(range(len(slots))):
        end -= slots[i]
        while width < slots[i]:
            total, error = _pair_sums(total, error)
            width *= 2
        sums[..., i] = total[..., end // width] + error[..., end // width]
    return sums


# float64's largest value over 16: headroom for the steps that follow a
# sum (TwoSum's differences, the wavelet diagram's centring and filters)
SUM_LIMIT = 2.0**1020


def check_sums_fit(samples: np.ndarray) -> None:
    """The overflow rule of the raw-sample sums: sum |x| of finite
    samples (check_samples) must be below SUM_LIMIT. It bounds every
    block sum, mean and partial sum that aggregate, build_pyramid, the
    k-statistics and the wavelet diagram take, so a trace that passes
    makes none of them overflow float64."""
    with np.errstate(over="ignore"):
        total = float(np.sum(np.abs(samples)))
    if not total < SUM_LIMIT:
        raise ValueError(f"the trace's sums overflow float64: sum |x| = {total:.3g} "
                         f"is not below {SUM_LIMIT:.3g}")


def check_squares_fit(centred: np.ndarray) -> float:
    """sum (x - mean)^2 of centred samples, below SUM_LIMIT (numpy's pairwise sum)."""
    with np.errstate(over="ignore"):
        squares = float(np.sum(centred * centred))
    if not squares < SUM_LIMIT:
        raise ValueError(f"the trace's squares overflow float64: sum (x - mean)^2 = "
                         f"{squares:.3g} is not below {SUM_LIMIT:.3g}")
    return squares


def check_block_size(n, name: str = "block size") -> int:
    """Block sizes and wavelet pyramid depths are positive integers."""
    return check_integer(n, name, lambda k: k >= 1, "a positive integer")


def aggregate(trace_or_samples, n: int) -> np.ndarray:
    """Sum non-overlapping blocks of size n; remainder samples dropped.

    The blocks climb as one slot each (_slot_width): a power-of-two n is
    its own slot, so the (blocks, n) view of the samples climbs with no
    copy (climb never writes to its buffer); any other n is zero-padded
    to its slot first. A block of one sample is that sample, copied (so
    -0.0 stays -0.0). The samples' sums must fit float64
    (check_sums_fit).
    """
    x = check_samples(trace_or_samples)
    n = check_block_size(n)
    if n > x.size:
        raise ValueError(f"block size {n} exceeds trace length {x.size}")
    check_sums_fit(x)
    num_blocks = x.size // n
    if n == 1:
        return x[:num_blocks].copy()
    blocks = x[: num_blocks * n].reshape(num_blocks, n)
    slot = _slot_width(n)
    if slot > n:
        padded = np.zeros((num_blocks, slot))
        padded[:, :n] = blocks
        blocks = padded
    return climb(blocks, [slot])[:, 0]


# blocks (or wavelet coefficients) kept at the coarsest scale
MIN_BLOCKS = 8


@dataclass
class AggregatePyramid:
    """Family of aggregated series indexed by ascending block size."""

    scales: tuple
    series: dict
    source_length: int


def dyadic_scales(length: int) -> list:
    """build_pyramid's scales: 2**0 up to the coarsest power of two that
    still leaves MIN_BLOCKS blocks (2**0 alone for a shorter trace)."""
    length = check_integer(length, "length", lambda n: n >= 0, "a nonnegative integer")
    return [2**e for e in range(max((length // MIN_BLOCKS).bit_length(), 1))]


def build_pyramid(trace_or_samples) -> AggregatePyramid:
    """Aggregate a trace at every dyadic scale its length allows (dyadic_scales).

    The trace must leave MIN_BLOCKS blocks at scale 1, and the samples'
    sums must fit float64 (check_sums_fit). Scale 1 is a copy of the
    samples. The levels are a prefix of the summation tree over the
    whole trace: level 2n is _pair_sums on level n's (sum, error) pair,
    whose dropped odd column is a partial block, so level n holds the
    x.size // n full-block sums, each aggregate(x, n) bit for bit (a
    block's sum depends only on its own subtree). A fit over fewer
    scales takes an octave window of the table; any other block size is
    aggregate's alone.
    """
    x = check_samples(trace_or_samples)
    check_sums_fit(x)
    if x.size < MIN_BLOCKS:
        raise ValueError(f"scale 1 leaves {x.size} blocks of a length-{x.size} trace; "
                         f"at least {MIN_BLOCKS} are required")
    scales = dyadic_scales(x.size)
    series = {1: x.copy()}
    total, error = x, None
    for n in scales[1:]:
        total, error = _pair_sums(total, error)
        series[n] = total + error
    return AggregatePyramid(scales=tuple(scales), series=series, source_length=x.size)
