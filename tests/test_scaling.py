import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefit.cumulants import CumulantTable
from scalefit.scaling import (
    InsufficientScalesError,
    LocalityCurve,
    ScalingFit,
    detect_knee,
    fit_loglog,
    hurst_spectrum,
    locality_curve,
)
from scalefit.wavelet import LogscaleDiagram, wavelet_hurst, wavelet_locality_curve


def knee_curve(x, y) -> LocalityCurve:
    """The locality curve of points (x[i], y[i]), the one input detect_knee takes."""
    points = tuple(zip(np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist()))
    return LocalityCurve(points=points, window_width=4)


def synthetic_table(orders, num_octaves, hurst_of, coeff_of=None, unusable=()):
    """Exact power-law table: values[(m, 2**j)] = c_m * 2**(m*H(m)*j)."""
    coeff_of = coeff_of or (lambda m: 1.0)
    scales = tuple(2**j for j in range(num_octaves + 1))
    values = {}
    usable = {}
    for m in orders:
        for j, n in enumerate(scales):
            values[(m, n)] = coeff_of(m) * 2.0 ** (m * hurst_of(m) * j)
            usable[(m, n)] = (m, n) not in unusable
    return CumulantTable(
        orders=tuple(orders),
        scales=scales,
        values=values,
        block_counts={n: 2**16 // n for n in scales},
        usable=usable,
    )


class TestFitLoglog:
    def test_exact_power_law(self):
        table = synthetic_table([2], 8, lambda m: 0.8, lambda m: 0.7)
        fit = fit_loglog(table, 2)
        assert fit.slope == pytest.approx(1.6, rel=1e-9)
        assert fit.hurst() == pytest.approx(0.8, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log2(0.7), rel=1e-9)
        assert fit.points_used == 9

    def test_window_restricts_scales(self):
        table = synthetic_table([2], 8, lambda m: 0.6)
        fit = fit_loglog(table, 2, window=(2, 5))
        assert fit.points_used == 4
        assert fit.hurst() == pytest.approx(0.6, rel=1e-9)

    def test_insufficient_usable_scales(self):
        unusable = {(3, 2**j) for j in range(9)}
        table = synthetic_table([2, 3], 8, lambda m: 0.7, unusable=unusable)
        with pytest.raises(InsufficientScalesError):
            fit_loglog(table, 3)

    def test_rejects_missing_order(self):
        table = synthetic_table([2], 8, lambda m: 0.7)
        with pytest.raises(ValueError):
            fit_loglog(table, 5)

    def test_warns_outside_unit_interval(self):
        table = synthetic_table([2], 8, lambda m: 1.3)
        with pytest.warns(UserWarning, match="outside"):
            fit = fit_loglog(table, 2)
        assert fit.hurst() == pytest.approx(1.3, rel=1e-9)

    def test_negative_cumulants_fit_via_absolute_value(self):
        table = synthetic_table([3], 8, lambda m: 0.5, lambda m: -2.0)
        fit = fit_loglog(table, 3)
        assert fit.hurst() == pytest.approx(0.5, rel=1e-9)
        assert fit.intercept == pytest.approx(1.0, rel=1e-9)


class TestHurstSpectrum:
    def test_exact_recovery(self):
        table = synthetic_table([1, 2, 3, 4], 8, lambda m: 0.9 - 0.05 * m)
        curve = hurst_spectrum(table)
        for m in (1, 2, 3, 4):
            assert curve.entries[m].hurst() == pytest.approx(0.9 - 0.05 * m, abs=1e-9)

    def test_omitted_orders_recorded(self):
        unusable = {(3, 2**j) for j in range(9)}
        table = synthetic_table([2, 3], 8, lambda m: 0.7, unusable=unusable)
        curve = hurst_spectrum(table)
        assert 2 in curve.entries
        assert 3 in curve.omitted

    def test_all_orders_unusable_is_error(self):
        unusable = {(m, 2**j) for m in (2, 3) for j in range(9)}
        table = synthetic_table([2, 3], 8, lambda m: 0.7, unusable=unusable)
        with pytest.raises(InsufficientScalesError):
            hurst_spectrum(table)


def curved_diagram():
    """Logscale diagram over octaves 1..12 whose slope drifts with octave."""
    octaves = tuple(range(1, 13))
    return LogscaleDiagram(
        octaves=octaves,
        energy={j: 2.0 ** (0.2 * j + 0.01 * j * j) for j in octaves},
        counts={j: 2**14 // 2**j for j in octaves},
    )


class TestOneFitRecord:
    """Every estimate keeps the ScalingFit that ScalingDiagram.fit returns,
    and every locality curve is the one ScalingDiagram.locality returns."""

    @pytest.mark.parametrize("window", [None, (1, 6)])
    def test_spectrum_entries_are_diagram_fits(self, window):
        unusable = {(3, 2**j) for j in range(9)}
        table = synthetic_table([2, 3, 4], 8, lambda m: 0.9 - 0.05 * m, lambda m: 1.5,
                                unusable=unusable)
        spectrum = hurst_spectrum(table, window)
        assert sorted(spectrum.entries) == [2, 4] and list(spectrum.omitted) == [3]
        for m, entry in spectrum.entries.items():
            fit = table.scaling_diagram(m).fit(window)
            assert isinstance(entry, ScalingFit)
            assert entry._asdict() == fit._asdict() == fit_loglog(table, m, window)._asdict()
            assert entry.hurst() == fit.slope / m
        assert spectrum.entries[2].window == ((1.0, 6.0) if window else (0.0, 8.0))
        assert spectrum.entries[2].points_used == (6 if window else 9)

    @pytest.mark.parametrize("width", [3, 5])
    def test_locality_curves_are_diagram_slides(self, width):
        table = synthetic_table([2], 10, lambda m: 0.75)
        diagram = curved_diagram()
        for curve, slid in ((locality_curve(table, 2, width), table.scaling_diagram(2)),
                            (wavelet_locality_curve(diagram, width), diagram.scaling_diagram())):
            assert isinstance(curve, LocalityCurve)
            assert curve == slid.locality(width)
            assert curve.window_width == width
            assert curve.estimates().tolist() == [
                slid.fit((j, j + width - 1)).h for j in curve.centers() - (width - 1) / 2]

    def test_wavelet_hurst_reads_the_record(self):
        diagram = curved_diagram()
        fit = diagram.scaling_diagram().fit((3, 11))
        assert wavelet_hurst(diagram, 3, 11) == (fit.h, fit.slope, fit.r_squared)
        assert fit.h == (fit.slope + 1.0) / 2.0


class TestLocalityCurve:
    def test_exact_single_power_law_is_flat(self):
        table = synthetic_table([2], 10, lambda m: 0.75)
        curve = locality_curve(table, 2, 4)
        estimates = curve.estimates()
        np.testing.assert_allclose(estimates, 0.75, rtol=1e-9)
        assert np.ptp(estimates) < 1e-9

    def test_window_centers(self):
        table = synthetic_table([2], 8, lambda m: 0.6)
        curve = locality_curve(table, 2, 4)
        np.testing.assert_allclose(curve.centers(), [1.5, 2.5, 3.5, 4.5, 5.5, 6.5])

    def test_rejects_narrow_window(self):
        table = synthetic_table([2], 8, lambda m: 0.6)
        with pytest.raises(ValueError):
            locality_curve(table, 2, 2)

    def test_too_few_scales(self):
        table = synthetic_table([2], 3, lambda m: 0.6)
        with pytest.raises(InsufficientScalesError):
            locality_curve(table, 2, 4)


class TestDetectKnee:
    def test_noiseless_two_segment(self):
        x = np.arange(11.0)
        y = np.where(x <= 5, x, 5 + 3 * (x - 5))
        knee = detect_knee(knee_curve(x, y))
        assert knee.octave == pytest.approx(5.0, abs=1e-9)
        assert knee.left_slope == pytest.approx(1.0, abs=1e-9)
        assert knee.right_slope == pytest.approx(3.0, abs=1e-9)
        assert knee.sse_reduction == pytest.approx(knee.single_line_sse, rel=1e-9)
        assert knee.fraction == pytest.approx(1.0, rel=1e-9)
        assert knee.significant(0.995)

    def test_collinear_input(self):
        x = np.arange(10.0)
        knee = detect_knee(knee_curve(x, 2 * x + 1))
        assert knee.sse_reduction == pytest.approx(0.0, abs=1e-18)
        assert knee.left_slope == pytest.approx(knee.right_slope, abs=1e-9)
        # no single-line SSE to reduce: no knee at any positive threshold
        assert knee.fraction == 0.0
        assert not any(knee.significant(t) for t in (1e-12, 0.2, 1.0))

    def test_curve_flat_to_rounding_has_no_knee(self):
        """H(1) is 1 by construction: a curve of 1 +- 2 ulp leaves a
        single-line SSE that is numerically zero, so nothing is removed."""
        ulps = np.array([0, 1, -1, 2, 0, -2, 1, 1, -1, 0, 2, -1])
        y = 1.0 + ulps * np.spacing(1.0)
        knee = detect_knee(knee_curve(np.arange(12.0), y))
        assert knee.fraction == 0.0
        assert knee.sse_reduction == 0.0
        assert not knee.significant(0.2)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            detect_knee(knee_curve(np.arange(5.0), np.arange(5.0)))

    def test_accepts_locality_curve(self):
        x = np.arange(10.0)
        knee = detect_knee(knee_curve(x, np.where(x < 5, 0.8, 0.8 - 0.1 * (x - 5))))
        assert knee.octave == pytest.approx(5.0, abs=1e-9)

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(8, 24),
    )
    def test_matches_bruteforce_enumeration(self, seed, size):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, 10, size=size))
        x += np.arange(size) * 1e-6  # enforce strictly increasing
        y = rng.normal(size=size)
        knee = detect_knee(knee_curve(x, y))

        def sse_line(xs, ys):
            slope, intercept = np.polyfit(xs, ys, 1)
            return float(((ys - intercept - slope * xs) ** 2).sum())

        totals = [
            sse_line(x[: i + 1], y[: i + 1]) + sse_line(x[i:], y[i:])
            for i in range(2, size - 2)
        ]
        single = sse_line(x, y)
        assert knee.single_line_sse == pytest.approx(single, rel=1e-9, abs=1e-12)
        assert knee.split_sse == pytest.approx(min(totals), rel=1e-9, abs=1e-12)
        assert all(knee.split_sse <= t + 1e-9 * abs(t) for t in totals)
        assert knee.sse_reduction == pytest.approx(
            max(0.0, single - min(totals)), rel=1e-9, abs=1e-12
        )


class TestCompositeMultifractality:
    @pytest.mark.filterwarnings("ignore:fit_loglog")
    def test_composite_hurst_varies_with_order(self):
        """The cascade-modulated composite is multifractal: H(4) sits
        measurably below H(2), unlike a pure fGn trace."""
        from scalefit.aggregate import build_pyramid
        from scalefit.cumulants import cumulant_scaling_table
        from scalefit.synth import CascadeSpec, FgnSpec, generate_multifractal

        diffs = []
        for seed in range(3):
            trace = generate_multifractal(
                FgnSpec(0.7, 2**14, 1.0, seed), CascadeSpec(14, 2.0, 1.0, 500 + seed)
            )
            table = cumulant_scaling_table(build_pyramid(trace), 4)
            spectrum = hurst_spectrum(table, (0, 8))
            assert 2 in spectrum.entries and 4 in spectrum.entries
            diffs.append(spectrum.entries[2].hurst() - spectrum.entries[4].hurst())
        assert np.mean(diffs) >= 0.03


class TestScaleEquivariance:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.01, 100.0),
    )
    def test_rescaling_trace_shifts_only_intercepts(self, seed, scale):
        """Multiplying the trace by s leaves slopes, H estimates, the
        locality curve, and the knee unchanged; intercepts move by
        m*log2(s) (cumulant homogeneity)."""
        from scalefit.aggregate import build_pyramid
        from scalefit.cumulants import cumulant_scaling_table

        x = np.random.default_rng(seed).normal(size=2**12)
        base = cumulant_scaling_table(build_pyramid(x), 2)
        scaled = cumulant_scaling_table(build_pyramid(scale * x), 2)
        fit_b = fit_loglog(base, 2)
        fit_s = fit_loglog(scaled, 2)
        assert fit_s.slope == pytest.approx(fit_b.slope, rel=1e-9, abs=1e-9)
        assert fit_s.intercept - fit_b.intercept == pytest.approx(
            2 * np.log2(scale), rel=1e-9, abs=1e-9
        )
        curve_b = locality_curve(base, 2, 4)
        curve_s = locality_curve(scaled, 2, 4)
        np.testing.assert_allclose(
            curve_s.estimates(), curve_b.estimates(), rtol=1e-9, atol=1e-9
        )
        knee_b = detect_knee(curve_b)
        knee_s = detect_knee(curve_s)
        assert knee_s.octave == knee_b.octave
