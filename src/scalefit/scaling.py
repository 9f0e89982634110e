"""Power-law scaling fits and scale-dependent Hurst estimation.

Both estimators fit the same object, a ScalingDiagram: per octave, the
log2 of a scale statistic, an optional regression weight, a usable
flag, and a linear map from slope to Hurst exponent. The order-m
cumulant of an aggregated self-similar series grows as a power of the
block size, so log2|k_m| against log2 n has slope m*H(m); the wavelet
logscale diagram (Abry & Veitch 1998) has slope 2H - 1. A constant H(m)
across orders indicates a monofractal (strictly self-similar) series;
variation with m indicates multifractality. Sliding the fit window
across octaves produces a locality curve; a change of slope in such a
curve (the knee) marks the scale where the estimate becomes
regime-dependent.

A line fit of a diagram is one record, ScalingFit (slope, intercept,
r^2, points used, octave window and H), and every estimate keeps it as
ScalingDiagram.fit returns it: fit_loglog returns it, hurst_spectrum
keeps one per fitted order and wavelet_hurst reads its H. A slide,
ScalingDiagram.locality, returns the LocalityCurve itself.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class InsufficientScalesError(ValueError):
    """Fewer usable scales than a regression needs."""


# points a line fit needs, so also a locality window and a knee segment
MIN_FIT_POINTS = 3
# octaves per locality window
DEFAULT_WINDOW_WIDTH = 4
# share of the single-line SSE a knee must remove to be significant
DEFAULT_KNEE_THRESHOLD = 0.2


def check_window_width(window_width: int) -> None:
    """A locality window spans at least MIN_FIT_POINTS octaves."""
    if window_width < MIN_FIT_POINTS:
        raise ValueError(f"window_width must be at least {MIN_FIT_POINTS} octaves, "
                         f"got {window_width}")


def _ols(x: np.ndarray, y: np.ndarray, w=None):
    """(Weighted) least squares line fit: slope, intercept, r^2, sse."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones_like(x) if w is None else np.asarray(w, dtype=float)
    wsum = w.sum()
    xm = (w * x).sum() / wsum
    ym = (w * y).sum() / wsum
    sxx = (w * (x - xm) ** 2).sum()
    sxy = (w * (x - xm) * (y - ym)).sum()
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - intercept - slope * x
    sse = (w * resid**2).sum()
    sst = (w * (y - ym) ** 2).sum()
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

    def hurst(self, m: int) -> float:
        return self.entries[m].hurst()


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


@dataclass(frozen=True)
class ScalingDiagram:
    """log2 of a scale statistic against octave, ready for line fits.

    octaves ascend strictly (both builders list them so). weights is None for ordinary least squares. Points whose usable flag
    is False (a statistic that is numerically or statistically zero)
    never enter a fit. H = (slope + shift) / divisor. label names the
    statistic in error messages.
    """

    label: str
    octaves: np.ndarray
    log2_stat: np.ndarray
    weights: np.ndarray | None
    usable: np.ndarray
    shift: float
    divisor: float

    def hurst(self, slope: float) -> float:
        return (slope + self.shift) / self.divisor

    def fit(self, window=None) -> ScalingFit:
        """Fit over the usable points of an inclusive octave window
        (j_lo, j_hi); None spans every octave. Needs MIN_FIT_POINTS points."""
        if window is None:
            window = (self.octaves.min(), self.octaves.max())
        j_lo, j_hi = float(window[0]), float(window[1])
        keep = self.usable & (self.octaves >= j_lo - 1e-12) & (self.octaves <= j_hi + 1e-12)
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


def detect_knee(curve_or_xy) -> KneePoint:
    """Exhaustive best two-segment OLS split of a curve.

    Every admissible breakpoint (at a data point, shared by both
    segments, with at least MIN_FIT_POINTS points per side) is tried; the split
    minimizing total SSE wins. sse_reduction is measured against the
    single-line fit and is always >= 0.
    """
    if isinstance(curve_or_xy, LocalityCurve):
        x = curve_or_xy.centers()
        y = curve_or_xy.estimates()
    else:
        x, y = curve_or_xy
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if x.size < MIN_KNEE_POINTS:
        raise ValueError(f"knee detection needs at least {MIN_KNEE_POINTS} points, got {x.size}")
    _, _, _, single_sse = _ols(x, y)
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


@dataclass
class MonofractalReport:
    """Spread of H(m) across orders versus a tolerance."""

    monofractal: bool
    spread: float
    hurst_min: float
    hurst_max: float


def classify_monofractal(curve: HurstCurve, tolerance: float) -> MonofractalReport:
    """True iff max H(m) - min H(m) is within tolerance."""
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if len(curve.entries) < 2:
        raise ValueError(
            f"classification needs at least 2 fitted orders, got {len(curve.entries)}"
        )
    values = [fit.hurst() for fit in curve.entries.values()]
    spread = max(values) - min(values)
    return MonofractalReport(
        monofractal=spread <= tolerance,
        spread=spread,
        hurst_min=min(values),
        hurst_max=max(values),
    )
