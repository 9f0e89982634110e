"""Orthonormal periodic discrete wavelet transform and logscale-diagram
Hurst estimation.

The logscale diagram plots log2 of the mean squared detail coefficient
per octave against the octave; for a stationary long-range dependent
series its slope alpha relates to the Hurst exponent by H = (alpha+1)/2.
Octave energies are chi-square-like averages of n_j coefficients, so
the regression is weighted by the coefficient counts. Energies follow
the cumulant table's numerical-zero rule (scaling.is_numerical_zero,
elementwise), applied once to every octave's energy against the centred
mean square. The diagram is fitted and slid as a scaling.ScalingDiagram,
the same object the cumulant estimator fits.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .aggregate import (check_block_size, check_samples, check_squares_fit, check_sums_fit,
                        dyadic_scales)
from .scaling import (DEFAULT_WINDOW_WIDTH, LocalityCurve, ScalingDiagram, _warn_if_outside_unit,
                      is_numerical_zero)

_SQRT_HALF = np.sqrt(0.5)

# Scaling (low-pass) filters, normalized so the coefficients sum to
# sqrt(2). Daubechies 4-tap values hardcoded to 15 significant digits.
_SCALING_FILTERS = {
    "haar": np.array([_SQRT_HALF, _SQRT_HALF]),
    "db4": np.array(
        [
            0.482962913144534,
            0.836516303737808,
            0.224143868042013,
            -0.129409522551260,
        ]
    ),
}


def _filters(family: str):
    lo = _SCALING_FILTERS[family]
    # quadrature mirror: g[k] = (-1)^k * h[L-1-k], so Haar detail is
    # (x1 - x2)/sqrt(2)
    hi = (lo[::-1] * np.array([1.0, -1.0] * (lo.size // 2))).copy()
    return lo, hi


FAMILIES = tuple(sorted(_SCALING_FILTERS))


@dataclass(frozen=True)
class WaveletSpec:
    """Transform family and pyramid depth."""

    family: str
    levels: int

    def __post_init__(self):
        if self.family not in _SCALING_FILTERS:
            raise ValueError(f"unknown wavelet family {self.family!r}; choose from {FAMILIES}")
        check_block_size(self.levels, "levels")


def max_levels(length: int) -> int:
    """Deepest pyramid keeping aggregate.MIN_BLOCKS coefficients per octave."""
    return max(len(dyadic_scales(length)) - 1, 1)


@dataclass
class DwtResult:
    """Per-octave detail coefficients (finest first) plus the final
    approximation."""

    details: tuple
    approximation: np.ndarray


@dataclass
class LogscaleDiagram:
    """Mean squared detail energy and coefficient count per octave."""

    octaves: tuple
    energy: dict
    counts: dict

    def scaling_diagram(self) -> ScalingDiagram:
        """log2 energy against octave, weighted by coefficient counts, with
        zero-energy octaves NaN; H = (slope + 1) / 2."""
        energy = np.array([self.energy[j] for j in self.octaves], dtype=float)
        return ScalingDiagram(
            label="detail energy",
            octaves=np.array(self.octaves, dtype=float),
            log2_stat=np.log2(energy, out=np.full(energy.size, np.nan), where=energy > 0.0),
            weights=np.array([self.counts[j] for j in self.octaves], dtype=float),
            shift=1.0,
            divisor=2.0,
        )


def _analysis_step(a: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """One level: row k of the windows is a[2k], ..., a[2k + taps - 1],
    indices taken modulo a.size. The windows are filled two columns at a
    time from the series repeated periodically to a.size + taps - 2
    samples, which also covers a filter longer than the series."""
    n, taps = a.size, lo.size
    wrapped = np.resize(a, n + taps - 2)
    windows = np.empty((n // 2, taps))
    for k in range(0, taps, 2):
        windows[:, k:k + 2] = wrapped[k:k + n].reshape(n // 2, 2)
    return windows @ lo, windows @ hi


def dwt(series, spec: WaveletSpec) -> DwtResult:
    """Periodic orthonormal pyramid transform.

    The series must pass aggregate.check_samples, and its length must be
    a multiple of 2**levels. Periodic boundary handling preserves exact
    orthonormality, so the transform conserves energy (Parseval);
    coefficients whose filter support wraps around the boundary see the
    series as circular. Each level
    fills its filter windows with slices of the series repeated
    periodically (_analysis_step), with no index array.
    """
    x = check_samples(series)
    if x.size % 2**spec.levels:
        raise ValueError(f"series length must be a positive multiple of "
                         f"2**levels = {2**spec.levels}, got {x.size}")
    lo, hi = _filters(spec.family)
    a = x
    details = []
    for _ in range(spec.levels):
        a, d = _analysis_step(a, lo, hi)
        details.append(d)
    return DwtResult(details=tuple(details), approximation=a)


def logscale_diagram(trace_or_samples, spec: WaveletSpec) -> LogscaleDiagram:
    """Mean squared detail coefficient per octave j = 1..levels.

    Unlike the bare transform, the diagram takes any length that leaves
    aggregate.MIN_BLOCKS detail coefficients at its coarsest octave, and
    drops the samples past the last multiple of 2**levels, as aggregate
    drops a partial block. Their sums (aggregate.check_sums_fit) and
    centred squares (aggregate.check_squares_fit, on the numpy sum of
    squares the variance is formed from) must stay below
    aggregate.SUM_LIMIT. The samples are centred
    first: the wavelets' vanishing moment makes the diagram blind to the
    mean, but the filter taps sum to zero only to round-off, so an offset
    would leak into every octave. Energies that are numerically zero
    (scaling.is_numerical_zero) against the centred mean square are
    set to exactly 0 and never fitted.
    """
    samples = check_samples(trace_or_samples)
    deepest = len(dyadic_scales(samples.size)) - 1  # octave j: one coefficient per 2**j samples
    if spec.levels > deepest:
        raise ValueError(
            f"series of length {samples.size} supports a diagram of at most "
            f"{deepest} octaves, got {spec.levels}"
        )
    samples = samples[: samples.size - samples.size % 2**spec.levels]
    check_sums_fit(samples)
    centred = samples - samples.mean()
    with np.errstate(over="ignore"):  # an overflowing sum is refused by name
        variance = check_squares_fit(float(np.sum(centred * centred))) / centred.size
    result = dwt(centred, spec)
    octaves = tuple(range(1, spec.levels + 1))
    counts = [d.size for d in result.details]
    # numpy's fixed-order pairwise sum: a BLAS dot product's digits follow the thread count
    mu = np.array([np.sum(d * d) for d in result.details]) / counts
    energy = np.where(is_numerical_zero(mu, variance), 0.0, mu)
    return LogscaleDiagram(octaves=octaves, energy=dict(zip(octaves, energy.tolist())),
                           counts=dict(zip(octaves, counts)))


class WaveletHurstFit(NamedTuple):
    hurst: float
    alpha: float
    r_squared: float


DEFAULT_J1 = 3


def default_fit_range(levels: int):
    """Default octave range: drop the discretization-affected finest
    octaves and the single coarsest one."""
    return DEFAULT_J1, check_block_size(levels, "levels") - 1


def wavelet_hurst(diagram: LogscaleDiagram, j1, j2) -> WaveletHurstFit:
    """Count-weighted fit of log2 energy vs octave over [j1, j2] with
    H = (slope + 1)/2; zero-energy octaves are left out."""
    fit = diagram.scaling_diagram().fit((j1, j2))
    _warn_if_outside_unit(fit.h, "wavelet_hurst")
    return WaveletHurstFit(hurst=fit.h, alpha=fit.slope, r_squared=fit.r_squared)


def wavelet_locality_curve(diagram: LogscaleDiagram,
                           window_width: int = DEFAULT_WINDOW_WIDTH) -> LocalityCurve:
    """The logscale diagram slid across octave windows; same curve type
    as the cumulant-based locality analysis, so knee detection applies
    unchanged."""
    return diagram.scaling_diagram().locality(window_width)
