import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefit import synth
from scalefit.synth import (
    CascadeSpec,
    FgnSpec,
    SynthesisError,
    Trace,
    _embedding_eigenvalues,
    _fgn_gamma,
    _root_spectrum,
    fgn_autocovariance,
    generate_cascade,
    generate_fgn,
    generate_multifractal,
    partial_sums,
)


class TestFgnAutocovariance:
    def test_white_noise_lag1_is_zero(self):
        assert fgn_autocovariance(0.5, 1.0, 1) == 0.0

    def test_lag0_is_variance(self):
        assert fgn_autocovariance(0.8, 1.0, 0) == 1.0
        assert fgn_autocovariance(0.3, 2.5, 0) == pytest.approx(2.5, rel=1e-15)

    def test_h08_lag1_direct_arithmetic(self):
        # independent oracle: (2**1.6 - 2) / 2 evaluated directly
        expected = (2.0**1.6 - 2.0) / 2.0
        assert fgn_autocovariance(0.8, 1.0, 1) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.5157165665103982, rel=1e-12)

    @given(
        hurst=st.floats(0.05, 0.95),
        variance=st.floats(0.1, 10.0),
        lag=st.integers(0, 50),
    )
    def test_matches_direct_formula(self, hurst, variance, lag):
        k = float(lag)
        expected = 0.5 * variance * (
            abs(k + 1) ** (2 * hurst) - 2 * abs(k) ** (2 * hurst) + abs(k - 1) ** (2 * hurst)
        )
        assert fgn_autocovariance(hurst, variance, lag) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_white_noise_all_lags_zero(self):
        for lag in range(1, 20):
            assert fgn_autocovariance(0.5, 3.0, lag) == 0.0

    @pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_hurst_out_of_range(self, hurst):
        with pytest.raises(ValueError):
            fgn_autocovariance(hurst, 1.0, 1)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            fgn_autocovariance(0.7, 0.0, 1)

    def test_rejects_negative_lag(self):
        # and every other lag that is not a nonnegative integer, bool included
        for lag in (-1, 1.5, math.inf, -math.inf, math.nan, True, False):
            with pytest.raises(ValueError, match="lag must be a nonnegative integer"):
                fgn_autocovariance(0.7, 1.0, lag)

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.8, 0.95])
    def test_generate_fgn_gamma_bitexact(self, hurst):
        """generate_fgn's vector of lags 0..2^12 is, lag by lag, the double
        fgn_autocovariance returns and the scalar closed form gives."""
        n, variance, two_h = 2**12, 1.7, 2.0 * hurst
        gamma = _fgn_gamma(hurst, variance, 0, n)
        single = np.array([fgn_autocovariance(hurst, variance, k) for k in range(n + 1)])
        scalar = np.array([
            0.5 * variance * (abs(k + 1.0) ** two_h - 2.0 * abs(k) ** two_h + abs(k - 1.0) ** two_h)
            for k in map(float, range(n + 1))
        ])
        assert gamma.tobytes() == single.tobytes() == scalar.tobytes()


class TestFgnSpec:
    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ValueError):
            FgnSpec(0.7, 1000, 1.0, 0)

    def test_rejects_short_length(self):
        with pytest.raises(ValueError):
            FgnSpec(0.7, 8, 1.0, 0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            FgnSpec(0.7, 64, 1.0, -1)
        with pytest.raises(ValueError):
            FgnSpec(0.7, 64, 1.0, 2**64)


class TestGenerateFgn:
    def test_deterministic_given_seed(self):
        spec = FgnSpec(0.8, 2**12, 1.0, 7)
        a = generate_fgn(spec)
        b = generate_fgn(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_sensitivity(self):
        a = generate_fgn(FgnSpec(0.8, 2**12, 1.0, 1))
        b = generate_fgn(FgnSpec(0.8, 2**12, 1.0, 2))
        assert not np.array_equal(a.samples, b.samples)

    def test_white_noise_lag1_autocovariance(self):
        x = generate_fgn(FgnSpec(0.5, 2**14, 1.0, 7)).samples
        lag1 = float(x[:-1] @ x[1:]) / x.size
        assert abs(lag1) < 0.03

    def test_length_and_metadata(self):
        t = generate_fgn(FgnSpec(0.6, 2**10, 2.0, 5))
        assert len(t) == 2**10
        assert t.meta["model"] == "fgn"
        assert t.meta["seed"] == 5
        assert t.meta["params"]["variance"] == 2.0

    def test_h08_lag1_autocovariance_20_seeds(self):
        # model mean is exactly zero, so the uncentered estimator is unbiased
        n = 2**14
        acc = 0.0
        for seed in range(20):
            x = generate_fgn(FgnSpec(0.8, n, 1.0, seed)).samples
            acc += float(x[:-1] @ x[1:]) / n
        assert acc / 20 == pytest.approx(0.5157165665103982, abs=0.02)

    def test_sample_variance_near_one(self):
        x = generate_fgn(FgnSpec(0.7, 2**14, 1.0, 3)).samples
        assert x.var() == pytest.approx(1.0, abs=0.1)


# sha256 of generate_fgn(...).samples.tobytes(), taken before the root
# spectrum was cached; any change to the fGn stream changes them
FGN_DIGESTS = {
    (0.6, 2**12, 1): "2cf7cd0e33623aeb479e00e10a93009526bdce50c8b22ed5dce2479e326f5f93",
    (0.8, 2**12, 1): "51d589ccc866b71c7274356b3a9a8b3587296206f248a9d2ca9bcb493f7d3f8f",
    (0.8, 2**16, 7): "c650ff9c90eef8772eb739fd1d2aa6e8850f6af52b93990c96a7412c046ff396",
}
COMPOSITE_DIGEST = "951c9a01e0bf8bd16f9941be290e420dfefc8b72d5fbe5844bbeb63f0ebf22c6"


def _digest(trace):
    return hashlib.sha256(trace.samples.tobytes()).hexdigest()


class TestRootSpectrumCache:
    def test_fgn_stream_unchanged(self):
        # interleaved, so a cache keyed on too few fields serves the wrong root
        for key in [(0.6, 2**12, 1), (0.8, 2**12, 1), (0.6, 2**12, 1), (0.8, 2**16, 7)]:
            hurst, length, seed = key
            assert _digest(generate_fgn(FgnSpec(hurst, length, 1.0, seed))) == FGN_DIGESTS[key]

    def test_composite_stream_unchanged(self):
        trace = generate_multifractal(FgnSpec(0.7, 2**12, 1.0, 1), CascadeSpec(12, 2.0, 1.0, 2))
        assert _digest(trace) == COMPOSITE_DIGEST

    def test_variance_is_part_of_the_key(self):
        a = generate_fgn(FgnSpec(0.8, 2**10, 1.0, 3)).samples
        b = generate_fgn(FgnSpec(0.8, 2**10, 4.0, 3)).samples
        assert np.array_equal(b, 2.0 * a)

    def test_root_is_read_only(self):
        root = _root_spectrum(0.8, 1.0, 2**10)
        assert not root.flags.writeable
        with pytest.raises(ValueError):
            root[0] = 0.0

    def test_root_is_sqrt_of_spectrum(self):
        lam = _embedding_eigenvalues(_fgn_gamma(0.7, 2.0, 0, 2**10))
        assert _root_spectrum(0.7, 2.0, 2**10).tobytes() == np.sqrt(lam).tobytes()

    def test_cache_size_bounded(self):
        for k in range(6):
            generate_fgn(FgnSpec(0.3 + 0.1 * k, 2**8, 1.0, 0))
        info = _root_spectrum.cache_info()
        assert info.maxsize == 4 and info.currsize <= 4

    def test_errors_not_cached(self, monkeypatch):
        calls = []

        def indefinite(gamma):
            calls.append(gamma.size)
            raise SynthesisError("indefinite")

        _root_spectrum.cache_clear()
        monkeypatch.setattr(synth, "_embedding_eigenvalues", indefinite)
        for _ in range(2):
            with pytest.raises(SynthesisError):
                generate_fgn(FgnSpec(0.55, 2**8, 1.0, 0))
        assert calls == [2**8 + 1, 2**8 + 1]
        assert _root_spectrum.cache_info().currsize == 0


class TestEmbeddingGuard:
    def test_rejects_indefinite_covariance(self):
        # an impossible covariance sequence: gamma(1) > gamma(0)
        gamma = np.array([1.0, 5.0, 0.0, 0.0, 0.0])
        with pytest.raises(SynthesisError):
            _embedding_eigenvalues(gamma)

    def test_clamps_tiny_negative_eigenvalues(self):
        gamma = np.array([fgn_autocovariance(0.9, 1.0, k) for k in range(17)])
        lam = _embedding_eigenvalues(gamma)
        assert np.all(lam >= 0.0)


class TestGenerateCascade:
    def test_equal_split_degenerate(self):
        t = generate_cascade(CascadeSpec(2, 2.0, 1.0, 0, equal_split=True))
        assert np.array_equal(t.samples, [0.25, 0.25, 0.25, 0.25])

    def test_conservation(self):
        t = generate_cascade(CascadeSpec(10, 2.0, 1.0, 3))
        assert abs(math.fsum(t.samples) - 1.0) <= 2.0**-40

    def test_conservation_arbitrary_mass(self):
        t = generate_cascade(CascadeSpec(12, 0.7, 3.75, 11))
        assert abs(math.fsum(t.samples) - 3.75) <= 3.75 * 2.0**-40

    def test_nonnegative_samples(self):
        t = generate_cascade(CascadeSpec(12, 0.5, 1.0, 9))
        assert np.all(t.samples >= 0.0)

    def test_seed_sensitivity(self):
        a = generate_cascade(CascadeSpec(10, 2.0, 1.0, 3))
        b = generate_cascade(CascadeSpec(10, 2.0, 1.0, 4))
        assert not np.array_equal(a.samples, b.samples)

    def test_deterministic(self):
        a = generate_cascade(CascadeSpec(10, 2.0, 1.0, 3))
        b = generate_cascade(CascadeSpec(10, 2.0, 1.0, 3))
        assert np.array_equal(a.samples, b.samples)

    def test_length_is_two_to_depth(self):
        assert len(generate_cascade(CascadeSpec(7, 1.0, 1.0, 0))) == 128

    def test_rejects_shallow_depth(self):
        with pytest.raises(ValueError):
            CascadeSpec(1, 2.0, 1.0, 0)

    def test_rejects_bad_multiplier(self):
        with pytest.raises(ValueError):
            CascadeSpec(4, 0.0, 1.0, 0)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            CascadeSpec(4, 2.0, -1.0, 0)


class TestGenerateMultifractal:
    def test_equal_split_reduces_to_fgn(self):
        fgn = FgnSpec(0.7, 2**10, 1.0, 1)
        cascade = CascadeSpec(10, 2.0, 1.0, 2, equal_split=True)
        composite = generate_multifractal(fgn, cascade)
        base = generate_fgn(fgn)
        assert np.array_equal(composite.samples, base.samples)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            generate_multifractal(FgnSpec(0.7, 2**10, 1.0, 1), CascadeSpec(9, 2.0, 1.0, 2))

    def test_deterministic_given_both_seeds(self):
        fgn = FgnSpec(0.7, 2**10, 1.0, 1)
        cascade = CascadeSpec(10, 2.0, 1.0, 2)
        a = generate_multifractal(fgn, cascade)
        b = generate_multifractal(fgn, cascade)
        assert np.array_equal(a.samples, b.samples)

    def test_energy_expectation_preserved(self):
        # modulation preserves expected energy: E[sum x^2] = N * variance
        n = 2**12
        energies = []
        for seed in range(50):
            t = generate_multifractal(
                FgnSpec(0.7, n, 1.0, seed), CascadeSpec(12, 2.0, 1.0, 5000 + seed)
            )
            energies.append(float(t.samples @ t.samples))
        assert np.mean(energies) == pytest.approx(n, rel=0.1)

    def test_metadata_records_both_seeds(self):
        t = generate_multifractal(FgnSpec(0.7, 2**10, 1.0, 1), CascadeSpec(10, 2.0, 1.0, 2))
        assert t.meta["params"]["fgn_seed"] == 1
        assert t.meta["params"]["cascade_seed"] == 2


class TestTraceParams:
    """Each generator's params are its spec's fields but the seed; the
    composite adds both seeds."""

    def test_params_are_spec_fields(self):
        fgn = FgnSpec(0.7, 2**10, 2.0, 1)
        cascade = CascadeSpec(10, 1.5, 3.0, 2)
        fields = {name: {f.name for f in dataclasses.fields(spec)} - {"seed"}
                  for name, spec in (("fgn", fgn), ("cascade", cascade))}
        cases = (
            (generate_fgn(fgn), fields["fgn"]),
            (generate_cascade(cascade), fields["cascade"]),
            (generate_multifractal(fgn, cascade),
             fields["fgn"] | fields["cascade"] | {"fgn_seed", "cascade_seed"}),
        )
        for trace, keys in cases:
            assert set(trace.meta["params"]) == keys
        assert generate_fgn(fgn).meta["params"] == {"hurst": 0.7, "length": 2**10,
                                                    "variance": 2.0}


class TestPartialSums:
    def test_simple(self):
        t = partial_sums(Trace(np.array([1.0, 2.0, 3.0])))
        assert np.array_equal(t.samples, [1.0, 3.0, 6.0])

    def test_zeros(self):
        t = partial_sums(Trace(np.zeros(5)))
        assert np.array_equal(t.samples, np.zeros(5))

    def test_singleton(self):
        t = partial_sums(Trace(np.array([5.0])))
        assert np.array_equal(t.samples, [5.0])

    @settings(max_examples=50)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_differencing_recovers_increments(self, values):
        x = np.array(values)
        y = partial_sums(Trace(x)).samples
        assert y.size == x.size
        assert y[0] == x[0]
        np.testing.assert_allclose(np.diff(y), x[1:], rtol=0, atol=1e-6)


class TestTraceInvariants:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trace(np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Trace(np.array([1.0, np.nan]))

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            Trace(np.array([1.0, np.inf]))
