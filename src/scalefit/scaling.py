"""Power-law scaling fits and scale-dependent Hurst estimation.

Both estimators fit the same object, a ScalingDiagram: per octave, the
log2 of a scale statistic (NaN where the statistic is numerically or
statistically zero), an optional regression weight, and a linear map
from slope to Hurst exponent. The order-m cumulant of an aggregated
self-similar series grows as a power of the block size, so log2|k_m|
against log2 n has slope m*H(m); the wavelet logscale diagram (Abry &
Veitch 1998) has slope 2H - 1. A constant H(m) across orders indicates
a monofractal (strictly self-similar) series; variation with m
indicates multifractality. Sliding the fit window across octaves
produces a locality curve; a change of slope in such a curve (the knee)
marks the scale where the estimate becomes regime-dependent.

A line fit of a diagram is one record, ScalingFit (slope, intercept,
r^2, points used, octave window and H), and every estimate keeps it as
ScalingDiagram.fit returns it: fit_loglog returns it, hurst_spectrum
keeps one per fitted order and wavelet_hurst reads its H. A slide,
ScalingDiagram.locality, returns the LocalityCurve itself.
is_numerical_zero is the numerical-zero rule of both estimators and of
the knee test, elementwise: applied once to a table's cells or to a
diagram's energies, and to one scalar by the knee test.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .rng import check_integer


class InsufficientScalesError(ValueError):
    """Fewer usable scales than a regression needs."""


# points a line fit needs, so also a locality window and a knee segment
MIN_FIT_POINTS = 3
# octaves per locality window
DEFAULT_WINDOW_WIDTH = 4
# share of the single-line SSE a knee must remove to be significant
DEFAULT_KNEE_THRESHOLD = 0.2
# relative size below which a statistic is numerically zero
NUMERICAL_ZERO_REL = 1e-12


def check_window_width(window_width: int, name: str = "window_width") -> int:
    """A locality window spans at least MIN_FIT_POINTS octaves."""
    return check_integer(window_width, name, lambda w: w >= MIN_FIT_POINTS,
                         f"at least {MIN_FIT_POINTS} octaves")


def check_finite(value, name: str) -> None:
    """Fit-window octaves, knee thresholds and empirical_cgf's t are finite."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def is_numerical_zero(value, variance, order=2):
    """The numerical-zero rule of both estimators, elementwise: |value| <=
    NUMERICAL_ZERO_REL * variance**(order/2), variance being a second
    moment, compared in log2 (a zero's is -inf) so that it cannot overflow."""
    with np.errstate(divide="ignore"):
        return (np.log2(np.abs(value))
                <= math.log2(NUMERICAL_ZERO_REL) + order / 2.0 * np.log2(np.abs(variance)))


def _ols(x: np.ndarray, y: np.ndarray, w=None):
    """(Weighted) least squares line fit of float arrays: slope, intercept, r^2, sse."""

    def weighted(v):
        # unweighted, the sums are taken directly: 1.0 * v is v, and n ones sum to n exactly
        return v if w is None else w * v

    wsum = float(x.size) if w is None else w.sum()
    xm = weighted(x).sum() / wsum
    ym = weighted(y).sum() / wsum
    dx, dy = x - xm, y - ym
    slope = (weighted(dx) * dy).sum() / weighted(dx**2).sum()
    intercept = ym - slope * xm
    resid = y - intercept - slope * x
    sse = weighted(resid**2).sum()
    sst = weighted(dy**2).sum()
    r_squared = 1.0 if sst <= 0.0 else max(0.0, 1.0 - sse / sst)
    return slope, intercept, r_squared, sse


def _warn_if_outside_unit(h: float, context: str):
    if not 0.0 < h < 1.0:
        warnings.warn(
            f"{context}: estimated Hurst exponent {h:.4g} lies outside (0, 1); "
            f"reported unclamped",
            stacklevel=3,
        )


class ScalingFit(NamedTuple):
    """One line fit of a ScalingDiagram over an inclusive octave window
    (j_lo, j_hi), the record every estimate keeps. h is the diagram's
    Hurst exponent of the slope (ScalingDiagram.hurst)."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int
    window: tuple
    h: float

    def hurst(self) -> float:
        return self.h


@dataclass
class HurstCurve:
    """Each fitted cumulant order's ScalingFit, with reasons for any
    omitted order."""

    entries: dict
    omitted: dict = field(default_factory=dict)


@dataclass
class LocalityCurve:
    """Hurst estimate as a function of the analysis-window position."""

    points: tuple
    window_width: int

    def centers(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    def estimates(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])


@dataclass
class KneePoint:
    """Best two-segment split of a curve (segments share the knee point).

    split_sse is the sum of both segments' SSEs; because the shared
    point's residual is counted in each segment, it can exceed the
    single-line SSE on structureless data, in which case sse_reduction
    clamps to 0.
    """

    octave: float
    left_slope: float
    right_slope: float
    sse_reduction: float
    single_line_sse: float
    split_sse: float

    @property
    def fraction(self) -> float:
        """sse_reduction as a share of the single-line SSE; 0 when that SSE is 0."""
        return self.sse_reduction / self.single_line_sse if self.single_line_sse > 0 else 0.0

    def significant(self, threshold: float) -> bool:
        """The knee removes at least threshold of the single-line SSE."""
        return self.fraction >= threshold


def check_knee_threshold(threshold: float, name: str = "threshold") -> None:
    """KneePoint.significant's threshold is finite and nonnegative."""
    check_finite(threshold, name)
    if threshold < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {threshold}")


@dataclass(frozen=True)
class ScalingDiagram:
    """log2 of a scale statistic against octave, ready for line fits.

    octaves ascend strictly (both builders list them so). weights is
    None for ordinary least squares. log2_stat is NaN where the
    statistic is numerically or statistically zero, and those points
    never enter a fit. H = (slope + shift) / divisor. label names the
    statistic in error messages.
    """

    label: str
    octaves: np.ndarray
    log2_stat: np.ndarray
    weights: np.ndarray | None
    shift: float
    divisor: float

    def hurst(self, slope: float) -> float:
        return (slope + self.shift) / self.divisor

    def fit(self, window=None) -> ScalingFit:
        """Fit over the non-NaN points of an inclusive octave window
        (j_lo, j_hi); None spans every octave. Needs MIN_FIT_POINTS points."""
        if window is None:
            window = (self.octaves.min(), self.octaves.max())
        j_lo, j_hi = float(window[0]), float(window[1])
        keep = (~np.isnan(self.log2_stat) & (self.octaves >= j_lo - 1e-12)
                & (self.octaves <= j_hi + 1e-12))
        used = int(keep.sum())
        if used < MIN_FIT_POINTS:
            raise InsufficientScalesError(
                f"{self.label}: only {used} usable scales in octave window "
                f"[{j_lo:g}, {j_hi:g}]; at least {MIN_FIT_POINTS} are required"
            )
        weights = None if self.weights is None else self.weights[keep]
        slope, intercept, r_squared, _ = _ols(self.octaves[keep], self.log2_stat[keep], weights)
        return ScalingFit(slope, intercept, r_squared, used, (j_lo, j_hi), self.hurst(slope))

    def locality(self, window_width: int) -> LocalityCurve:
        """(window center, H) points for windows of window_width
        consecutive octaves, one anchored at each octave. Windows with too
        few usable points to fit are skipped; fewer than 2 fitted windows
        is an error."""
        check_window_width(window_width)
        points = []
        for j0 in self.octaves:
            j1 = j0 + window_width - 1
            if j1 > self.octaves[-1] + 1e-12:
                break
            try:
                fit = self.fit((j0, j1))
            except InsufficientScalesError:
                continue
            points.append((float(j0 + (window_width - 1) / 2.0), float(fit.h)))
        if len(points) < 2:
            raise InsufficientScalesError(
                f"{self.label}: fewer than 2 sliding windows of width {window_width} "
                f"could be fitted over octaves {self.octaves[0]:g}..{self.octaves[-1]:g}"
            )
        return LocalityCurve(points=tuple(points), window_width=window_width)


def fit_loglog(table, m: int, window=None) -> ScalingFit:
    """OLS of log2|k_m| against log2 n over usable scales in a window.

    window is an inclusive octave range (j_lo, j_hi); None uses every
    scale in the table.
    """
    fit = table.scaling_diagram(m).fit(window)
    # the order-1 k-statistic of n-blocks is n times the mean, so H(1) = 1
    # by construction and says nothing about the trace
    if m > 1:
        _warn_if_outside_unit(fit.h, f"fit_loglog(order={m})")
    return fit


def hurst_spectrum(table, window=None) -> HurstCurve:
    """fit_loglog of every fittable order, H(m) = slope/m; others recorded
    as omitted."""
    entries = {}
    omitted = {}
    for m in table.orders:
        try:
            entries[m] = fit_loglog(table, m, window)
        except InsufficientScalesError as exc:
            omitted[m] = str(exc)
    if not entries:
        raise InsufficientScalesError(
            "no order could be fitted: " + "; ".join(omitted.values())
        )
    return HurstCurve(entries=entries, omitted=omitted)


def locality_curve(table, m: int, window_width: int = DEFAULT_WINDOW_WIDTH) -> LocalityCurve:
    """Order-m Hurst estimates from a window slid across the table's
    octaves (see ScalingDiagram.locality)."""
    return table.scaling_diagram(m).locality(window_width)


MIN_KNEE_POINTS = 6


def detect_knee(curve: LocalityCurve) -> KneePoint:
    """Exhaustive best two-segment OLS split of a locality curve's
    (center, H) points.

    Every admissible breakpoint (at a data point, shared by both
    segments, with at least MIN_FIT_POINTS points per side) is tried; the split
    minimizing total SSE wins. sse_reduction is measured against the
    single-line fit and is always >= 0. A single-line SSE that is
    numerically zero against sum y^2 (is_numerical_zero) counts as 0: a
    curve flat to rounding has no knee to find, and its fraction is 0.
    """
    x = curve.centers()
    y = curve.estimates()
    if x.size < MIN_KNEE_POINTS:
        raise ValueError(f"knee detection needs at least {MIN_KNEE_POINTS} points, got {x.size}")
    _, _, _, single_sse = _ols(x, y)
    if is_numerical_zero(single_sse, float(np.sum(y * y))):
        single_sse = 0.0
    best = None
    for i in range(MIN_FIT_POINTS - 1, x.size - MIN_FIT_POINTS + 1):
        ls, _, _, lsse = _ols(x[: i + 1], y[: i + 1])
        rs, _, _, rsse = _ols(x[i:], y[i:])
        total = lsse + rsse
        if best is None or total < best[0]:
            best = (total, x[i], ls, rs)
    total, octave, left, right = best
    return KneePoint(
        octave=float(octave),
        left_slope=float(left),
        right_slope=float(right),
        sse_reduction=float(max(0.0, single_sse - total)),
        single_line_sse=float(single_sse),
        split_sse=float(total),
    )

