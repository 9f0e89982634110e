"""Orthonormal periodic discrete wavelet transform and logscale-diagram
Hurst estimation.

The logscale diagram plots log2 of the mean squared detail coefficient
per octave against the octave; for a stationary long-range dependent
series its slope alpha relates to the Hurst exponent by H = (alpha+1)/2.
Octave energies are chi-square-like averages of n_j coefficients, so
the regression is weighted by the coefficient counts. Energies follow
the cumulant table's numerical-zero rule, against the centred mean
square. The diagram is fitted and slid as a scaling.ScalingDiagram, the
same object the cumulant estimator fits.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .aggregate import _as_samples, check_sums_fit, dyadic_scales
from .cumulants import is_numerical_zero
from .scaling import DEFAULT_WINDOW_WIDTH, LocalityCurve, ScalingDiagram, _warn_if_outside_unit

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

    family: str = "db4"
    levels: int = 1

    def __post_init__(self):
        if self.family not in _SCALING_FILTERS:
            raise ValueError(f"unknown wavelet family {self.family!r}; choose from {FAMILIES}")
        if self.levels < 1 or int(self.levels) != self.levels:
            raise ValueError(f"levels must be a positive integer, got {self.levels}")


def max_levels(length: int) -> int:
    """Deepest pyramid keeping aggregate.MIN_BLOCKS coefficients per octave."""
    return max(len(dyadic_scales(length)) - 1, 1)


@dataclass
class DwtResult:
    """Per-octave detail coefficients (finest first) plus the final
    approximation."""

    details: tuple
    approximation: np.ndarray
    family: str


@dataclass
class LogscaleDiagram:
    """Mean squared detail energy and coefficient count per octave."""

    octaves: tuple
    energy: dict
    counts: dict

    def scaling_diagram(self) -> ScalingDiagram:
        """log2 energy against octave, weighted by coefficient counts, with
        zero-energy octaves unusable; H = (slope + 1) / 2."""
        energy = np.array([self.energy[j] for j in self.octaves], dtype=float)
        usable = energy > 0.0
        return ScalingDiagram(
            label="detail energy",
            octaves=np.array(self.octaves, dtype=float),
            log2_stat=np.log2(energy, out=np.full(energy.size, np.nan), where=usable),
            weights=np.array([self.counts[j] for j in self.octaves], dtype=float),
            usable=usable,
            shift=1.0,
            divisor=2.0,
        )


def _analysis_step(a: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    taps = lo.size
    idx = (2 * np.arange(a.size // 2)[:, None] + np.arange(taps)) % a.size
    windows = a[idx]
    return windows @ lo, windows @ hi


def dwt(series, spec: WaveletSpec) -> DwtResult:
    """Periodic orthonormal pyramid transform.

    The input length must be a power of two >= 2**levels. Periodic
    boundary handling preserves exact orthonormality, so the transform
    conserves energy (Parseval); coefficients whose filter support
    wraps around the boundary see the series as circular.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = x.size
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"series length must be a power of two, got {n}")
    if n < 2**spec.levels:
        raise ValueError(
            f"series of length {n} cannot be decomposed over {spec.levels} levels"
        )
    lo, hi = _filters(spec.family)
    a = x
    details = []
    for _ in range(spec.levels):
        a, d = _analysis_step(a, lo, hi)
        details.append(d)
    return DwtResult(details=tuple(details), approximation=a, family=spec.family)


def logscale_diagram(trace_or_samples, spec: WaveletSpec) -> LogscaleDiagram:
    """Mean squared detail coefficient per octave j = 1..levels.

    Unlike the bare transform, the diagram needs aggregate.MIN_BLOCKS
    detail coefficients at its coarsest octave, and the samples' sums
    must fit float64 (aggregate.check_sums_fit). The samples are centred
    first: the wavelets' vanishing moment makes the diagram blind to the
    mean, but the filter taps sum to zero only to round-off, so an offset
    would leak into every octave. Energies that are numerically zero
    (cumulants.is_numerical_zero) against the centred mean square are
    set to exactly 0 and never fitted.
    """
    samples = _as_samples(trace_or_samples)
    deepest = len(dyadic_scales(samples.size)) - 1  # octave j: one coefficient per 2**j samples
    if spec.levels > deepest:
        raise ValueError(
            f"series of length {samples.size} supports a diagram of at most "
            f"{deepest} octaves, got {spec.levels}"
        )
    check_sums_fit(samples)
    centred = samples - samples.mean()
    # energies are numpy's fixed-order pairwise sums: a BLAS dot product
    # splits its sum by thread count, so the last digits would follow it
    variance = float(np.sum(centred * centred)) / centred.size
    result = dwt(centred, spec)
    energy = {}
    counts = {}
    for j, d in enumerate(result.details, start=1):
        mu = float(np.sum(d * d)) / d.size
        energy[j] = 0.0 if is_numerical_zero(mu, variance) else mu
        counts[j] = d.size
    return LogscaleDiagram(octaves=tuple(range(1, spec.levels + 1)), energy=energy, counts=counts)


class WaveletHurstFit(NamedTuple):
    hurst: float
    alpha: float
    r_squared: float


DEFAULT_J1 = 3


def default_fit_range(levels: int):
    """Default octave range: drop the discretization-affected finest
    octaves and the single coarsest one."""
    return DEFAULT_J1, levels - 1


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
