import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefit.aggregate import build_pyramid
from scalefit.cumulants import cumulant_scaling_table
from scalefit.scaling import detect_knee, fit_loglog
from scalefit.synth import FgnSpec, generate_fgn
from scalefit.wavelet import (
    FAMILIES,
    LogscaleDiagram,
    WaveletSpec,
    _filters,
    dwt,
    logscale_diagram,
    max_levels,
    wavelet_hurst,
    wavelet_locality_curve,
)


def transform_energy(result):
    total = sum(float(d @ d) for d in result.details)
    return total + float(result.approximation @ result.approximation)


class TestDwt:
    def test_haar_single_pair(self):
        result = dwt(np.array([1.0, 3.0]), WaveletSpec("haar", 1))
        assert result.details[0][0] == pytest.approx(-np.sqrt(2.0), rel=1e-15)
        assert result.approximation[0] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("family", ["haar", "db4"])
    def test_constant_input_zero_details(self, family):
        result = dwt(np.full(256, 4.2), WaveletSpec(family, 4))
        for d in result.details:
            np.testing.assert_allclose(d, 0.0, atol=1e-12)

    @pytest.mark.parametrize("family", ["haar", "db4"])
    def test_parseval(self, family):
        rng = np.random.default_rng(0)
        x = rng.normal(size=2**10)
        result = dwt(x, WaveletSpec(family, 7))
        assert transform_energy(result) == pytest.approx(float(x @ x), rel=1e-8)

    @pytest.mark.parametrize("family", ["haar", "db4"])
    def test_parseval_non_power_of_two(self, family):
        x = np.random.default_rng(4).normal(size=3 * 2**9)
        result = dwt(x, WaveletSpec(family, 5))
        assert result.approximation.size == 48
        assert transform_energy(result) == pytest.approx(float(x @ x), rel=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["haar", "db4"]),
        exponent=st.integers(4, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parseval_property(self, family, exponent, seed):
        x = np.random.default_rng(seed).normal(size=2**exponent)
        levels = max_levels(x.size)
        result = dwt(x, WaveletSpec(family, levels))
        assert transform_energy(result) == pytest.approx(float(x @ x), rel=1e-8)

    def test_db4_annihilates_ramp_away_from_boundary(self):
        """Two vanishing moments kill linear trends; only coefficients
        whose periodic support wraps the boundary jump see the seam."""
        n = 2**10
        x = np.arange(n, dtype=float)
        ramp_energy = float(x @ x)
        result = dwt(x, WaveletSpec("db4", 5))
        for d in result.details:
            interior = d[:-3]
            assert float(interior @ interior) <= 1e-8 * ramp_energy

    def test_coefficient_counts_halve(self):
        result = dwt(np.random.default_rng(1).normal(size=2**9), WaveletSpec("db4", 5))
        assert [d.size for d in result.details] == [256, 128, 64, 32, 16]
        assert result.approximation.size == 16

    def test_rejects_non_power_of_two(self):
        """A length 2**levels does not divide is refused, power of two or
        not: 100 = 4 x 25 takes 2 levels, not 3."""
        with pytest.raises(ValueError, match="multiple of 2\\*\\*levels = 8, got 100"):
            dwt(np.zeros(100), WaveletSpec("haar", 3))
        assert [d.size for d in dwt(np.zeros(100), WaveletSpec("haar", 2)).details] == [50, 25]

    def test_rejects_too_many_levels(self):
        with pytest.raises(ValueError):
            dwt(np.zeros(64), WaveletSpec("haar", 7))  # 64 = 2**6 allows 6

    def test_rejects_2d_series(self):
        with pytest.raises(ValueError, match="^series must be one-dimensional$"):
            dwt(np.zeros((8, 8)), WaveletSpec("haar", 2))

    def test_diagram_needs_8_coarsest_details(self):
        # the bare transform allows 4 levels on 64 samples; a diagram
        # needs levels <= log2(64) - 3 = 3
        with pytest.raises(ValueError):
            logscale_diagram(np.zeros(64), WaveletSpec("haar", 4))
        logscale_diagram(np.zeros(64), WaveletSpec("haar", 3))

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            WaveletSpec("sym8", 3)


def _reference_dwt(x, family, levels):
    """The pyramid with each level's windows gathered by a modulo index."""
    lo, hi = _filters(family)
    a, details = x, []
    for _ in range(levels):
        idx = (2 * np.arange(a.size // 2)[:, None] + np.arange(lo.size)) % a.size
        windows = a[idx]
        a = windows @ lo
        details.append(windows @ hi)
    return details, a


class TestDwtWindows:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 4, 6, 16, 48, 64, 3 * 2**9, 2**12, 2**17])
    def test_matches_modulo_gather(self, family, n):
        """Byte for byte at every level, down to the coarsest, where db4's
        4 taps wrap a series of 2 or 4 samples more than once."""
        x = np.random.default_rng(n).normal(size=n)
        levels = (n & -n).bit_length() - 1
        result = dwt(x, WaveletSpec(family, levels))
        details, approximation = _reference_dwt(x, family, levels)
        assert [d.tobytes() for d in result.details] == [d.tobytes() for d in details]
        assert result.approximation.tobytes() == approximation.tobytes()


class TestLogscaleDiagram:
    def test_constant_trace_zero_energy(self):
        diagram = logscale_diagram(np.full(256, 1.0), WaveletSpec("haar", 4))
        assert all(diagram.energy[j] == pytest.approx(0.0, abs=1e-20) for j in diagram.octaves)

    def test_counts(self):
        diagram = logscale_diagram(np.zeros(2**8), WaveletSpec("haar", 4))
        assert [diagram.counts[j] for j in diagram.octaves] == [128, 64, 32, 16]

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=2**10)
        a = logscale_diagram(x, WaveletSpec("db4", 6))
        b = logscale_diagram(x + 100.0, WaveletSpec("db4", 6))
        for j in a.octaves:
            assert b.energy[j] == pytest.approx(a.energy[j], rel=1e-8, abs=1e-10)

    def test_large_offset_keeps_octaves(self):
        """The diagram ignores the mean: a 1e7 offset on a unit-variance
        trace loses no octave to the numerical-zero rule."""
        x = generate_fgn(FgnSpec(0.8, 2**14, 1.0, 7)).samples
        base = wavelet_hurst(logscale_diagram(x, WaveletSpec("db4", 11)), 3, 10).hurst
        shifted = wavelet_hurst(logscale_diagram(x + 1e7, WaveletSpec("db4", 11)), 3, 10).hurst
        assert shifted == pytest.approx(base, abs=1e-6)

    def test_rejects_overflowing_sums(self):
        """The diagram's mean would overflow: refused by build_pyramid's
        rule, before the RuntimeWarnings of the mean and the filters."""
        x = 1e305 * generate_fgn(FgnSpec(0.8, 4096, 1.0, 3)).samples + 1e306
        with pytest.raises(ValueError, match="sums overflow float64"):
            logscale_diagram(x, WaveletSpec("db4", 9))

    def test_drops_remainder(self):
        """1365 samples over 7 octaves: the leading 1280 (10 x 2**7) are
        transformed, as aggregate drops a partial block."""
        x = generate_fgn(FgnSpec(0.8, 2**11, 1.0, 5)).samples[:1365]
        spec = WaveletSpec("db4", 7)
        diagram = logscale_diagram(x, spec)
        assert diagram == logscale_diagram(x[:1280], spec)
        assert [diagram.counts[j] for j in diagram.octaves] == [640, 320, 160, 80, 40, 20, 10]

    def test_rejects_overflowing_squares(self):
        """Sums that fit but squares that do not: refused by name, with no
        RuntimeWarning on the way (RuntimeWarnings are errors here)."""
        x = 1e160 * generate_fgn(FgnSpec(0.8, 4096, 1.0, 3)).samples
        with pytest.raises(ValueError, match="squares overflow float64"):
            logscale_diagram(x, WaveletSpec("db4", 9))

    def test_white_noise_flat(self):
        x = np.random.default_rng(3).normal(size=2**16)
        diagram = logscale_diagram(x, WaveletSpec("db4", 13))
        log_mu = [np.log2(diagram.energy[j]) for j in diagram.octaves]
        slope = np.polyfit(diagram.octaves, log_mu, 1)[0]
        assert slope == pytest.approx(0.0, abs=0.15)


class TestWaveletHurst:
    def test_exact_diagram(self):
        octaves = tuple(range(1, 11))
        diagram = LogscaleDiagram(
            octaves=octaves,
            energy={j: 2.0 ** (0.6 * j) for j in octaves},
            counts={j: 100 for j in octaves},
        )
        fit = wavelet_hurst(diagram, 1, 10)
        assert fit.alpha == pytest.approx(0.6, rel=1e-9)
        assert fit.hurst == pytest.approx(0.8, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_white_noise_hurst_half(self):
        x = np.random.default_rng(4).normal(size=2**16)
        diagram = logscale_diagram(x, WaveletSpec("db4", 13))
        fit = wavelet_hurst(diagram, 3, 12)
        assert fit.hurst == pytest.approx(0.5, abs=0.07)

    def test_fgn_h08_slope(self):
        trace = generate_fgn(FgnSpec(0.8, 2**16, 1.0, 11))
        diagram = logscale_diagram(trace, WaveletSpec("haar", 13))
        fit = wavelet_hurst(diagram, 3, 12)
        assert fit.alpha == pytest.approx(0.6, abs=0.1)

    def test_rejects_bad_range(self):
        diagram = logscale_diagram(np.random.default_rng(5).normal(size=256), WaveletSpec("haar", 4))
        with pytest.raises(ValueError):
            wavelet_hurst(diagram, 3, 3)
        with pytest.raises(ValueError):
            wavelet_hurst(diagram, 1, 2)  # only 2 octaves

    def test_zero_energy_error(self):
        diagram = logscale_diagram(np.full(256, 2.0), WaveletSpec("haar", 4))
        with pytest.raises(ValueError, match="energy"):
            wavelet_hurst(diagram, 1, 4)


class TestWaveletLocality:
    def test_exact_diagram_flat(self):
        octaves = tuple(range(1, 13))
        diagram = LogscaleDiagram(
            octaves=octaves,
            energy={j: 3.0 * 2.0 ** (0.2 * j) for j in octaves},
            counts={j: 2**14 // 2**j for j in octaves},
        )
        curve = wavelet_locality_curve(diagram, 4)
        np.testing.assert_allclose(curve.estimates(), 0.6, rtol=1e-9)
        assert np.ptp(curve.estimates()) < 1e-9

    def test_knee_applies_to_wavelet_curve(self):
        octaves = tuple(range(1, 14))
        energy = {j: 2.0 ** (0.6 * j) if j <= 8 else 2.0 ** (0.6 * 8 + 0.2 * (j - 8)) for j in octaves}
        diagram = LogscaleDiagram(
            octaves=octaves,
            energy=energy,
            counts={j: 2**16 // 2**j for j in octaves},
        )
        curve = wavelet_locality_curve(diagram, 4)
        knee = detect_knee(curve)
        assert 6.0 <= knee.octave <= 9.0

    def test_insufficient_octaves(self):
        diagram = logscale_diagram(np.random.default_rng(6).normal(size=2**7), WaveletSpec("haar", 4))
        with pytest.raises(ValueError):
            wavelet_locality_curve(diagram, 5)


class TestCrossEstimatorAgreement:
    def test_wavelet_close_to_cumulant_on_fgn(self):
        trace = generate_fgn(FgnSpec(0.7, 2**16, 1.0, 21))
        table = cumulant_scaling_table(build_pyramid(trace), 2)
        cumulant_h = fit_loglog(table, 2, (0, 10)).hurst()
        diagram = logscale_diagram(trace, WaveletSpec("haar", 13))
        wavelet_h = wavelet_hurst(diagram, 3, 12).hurst
        assert abs(wavelet_h - cumulant_h) <= 0.08
