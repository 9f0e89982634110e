"""Seeded random number generation for reproducible synthesis.

All stochastic generators in this package draw from a Philox 4x64
counter-based bit generator keyed directly with the user-supplied seed,
so identical seeds give bit-identical streams. Gaussian variates are
produced by an explicit Box-Muller transform of uniform pairs rather
than a rejection sampler, which keeps the mapping seed -> output fixed
and platform-independent up to libm rounding. Cascade multipliers are
numpy's Generator.beta draws on the same key jumped 2**128 draws ahead
(synth._cascade_masses), a block the Box-Muller uniforms never reach;
numpy's stream-compatibility policy covers raw uniforms, not beta
variates, so that stream is pinned by tests rather than promised.
"""
from __future__ import annotations

import numpy as np

SEED_MAX = 2**64 - 1


def check_integer(value, name: str, ok, must_be: str) -> int:
    """The package's one integer rule, which every count it takes passes:
    value is an int or a numpy integer, never a bool or a float, and the
    owner's predicate ok holds of it as a Python int. Returns that int;
    anything else is a ValueError "<name> must be <must_be>, got <value>"."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and ok(int(value)):
        return int(value)
    raise ValueError(f"{name} must be {must_be}, got {value}")


def check_seed(seed, name: str = "seed") -> int:
    return check_integer(seed, name, lambda s: 0 <= s <= SEED_MAX, "an unsigned 64-bit integer")


def make_rng(seed) -> np.random.Generator:
    """Philox generator keyed directly with ``seed`` (no entropy mixing)."""
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


def standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` N(0,1) variates via Box-Muller on uniform pairs.

    Pair order is fixed: uniforms are consumed two at a time and each
    pair yields (r cos, r sin) in that order. An odd ``count`` consumes
    a full final pair and discards the second variate. The uniforms are
    drawn into the output buffer and the transform runs in place, through
    one radius and one trig buffer of ``count / 2`` doubles each.
    """
    count = check_integer(count, "count", lambda c: c >= 0, "a nonnegative integer")
    pairs = (count + 1) // 2
    out = np.empty(2 * pairs)
    rng.random(out=out)
    even, odd = out[0::2], out[1::2]
    r = 1.0 - even  # in (0, 1]: keeps log() finite
    np.log(r, out=r)
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    np.multiply(2.0 * np.pi, odd, out=odd)  # the angle
    trig = np.cos(odd)
    np.multiply(r, trig, out=even)
    np.sin(odd, out=trig)
    np.multiply(r, trig, out=odd)
    return out[:count]
