"""Seeded random number generation for reproducible synthesis.

All stochastic generators in this package draw from a Philox 4x64
counter-based bit generator keyed directly with the user-supplied seed,
so identical seeds give bit-identical streams. Gaussian variates are
produced by an explicit Box-Muller transform of uniform pairs rather
than a rejection sampler, which keeps the mapping seed -> output fixed
and platform-independent up to libm rounding.
"""
from __future__ import annotations

import numpy as np

SEED_MAX = 2**64 - 1


def check_seed(seed, name: str = "seed") -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"{name} must be an integer, got {seed!r}")
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def make_rng(seed) -> np.random.Generator:
    """Philox generator keyed directly with ``seed`` (no entropy mixing)."""
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


def standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` N(0,1) variates via Box-Muller on uniform pairs.

    Pair order is fixed: uniforms are consumed two at a time and each
    pair yields (r cos, r sin) in that order. An odd ``count`` consumes
    a full final pair and discards the second variate.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    pairs = (count + 1) // 2
    if pairs == 0:
        return np.empty(0)
    u = rng.random(2 * pairs)
    u1 = 1.0 - u[0::2]  # in (0, 1]: keeps log() finite
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:count]
