import dataclasses
import hashlib
import math
import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefit import synth
from scalefit.rng import make_rng, standard_normals
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
        for lag in (-1, 1.5, 2.0, math.inf, -math.inf, math.nan, True, False):
            with pytest.raises(ValueError, match="lag must be a nonnegative integer"):
                fgn_autocovariance(0.7, 1.0, lag)

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.8, 0.95])
    def test_generate_fgn_gamma_bitexact(self, hurst):
        """generate_fgn's vector of lags 0..2^12 is, lag by lag, the double
        fgn_autocovariance returns and the scalar closed form gives."""
        n, variance, two_h = 2**12, 1.7, 2.0 * hurst
        gamma = _fgn_gamma(hurst, variance, n)
        single = np.array([fgn_autocovariance(hurst, variance, k) for k in range(n + 1)])
        scalar = np.array([
            0.5 * variance * (abs(k + 1.0) ** two_h - 2.0 * abs(k) ** two_h + abs(k - 1.0) ** two_h)
            for k in map(float, range(n + 1))
        ])
        assert gamma.tobytes() == single.tobytes() == scalar.tobytes()

    def test_far_lag_is_the_closed_form(self):
        """A lag of 2**40 costs three pow calls, not an array of 2**40 lags."""
        k, two_h = float(2**40), 1.6
        closed = 0.5 * (pow(k + 1.0, two_h) - 2.0 * pow(k, two_h) + pow(k - 1.0, two_h))
        assert fgn_autocovariance(0.8, 1.0, 2**40) == closed


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


# sha256 of generate_fgn(...).samples.tobytes(), taken with the
# real-input (rfft/irfft) circulant embedding; any change to the fGn
# stream changes them
FGN_DIGESTS = {
    (0.6, 2**12, 1): "c2f1042a51382c658ea8574874445d21851a4559148fc15a1de14a14c51e1dbb",
    (0.8, 2**12, 1): "ca5fcef0deea4287b3f7174ee3847d18a2d05118e2f0d56848c536ab36b76141",
    (0.8, 2**16, 7): "a6313a282677487494879fe40a741a778d0b21269105deac618d46cf81929b5a",
}
# the composite and cascade streams, Beta multipliers drawn by
# Generator.beta on the seed's jumped Philox block: numpy promises no
# stream compatibility for beta variates, so a numpy that changes them
# fails here; a=2 takes numpy's gamma-ratio path, a=0.5 Johnk's method
COMPOSITE_DIGEST = "4f3591891830736e7ecbf442dc8411f64a7c81724ed2e511a139f9e2aa52e22a"
CASCADE_DIGESTS = {
    (2.0, 12, 3): "7e062e1cd5a12fb2d76f4327ae0ad4e0de7721ff41f23dd546dbdbcc6890142e",
    (0.5, 12, 3): "13852c3686d91be84f0f0767140447218e689fa3aa730b21253424e1ca2bc989",
}


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

    @pytest.mark.parametrize("key", sorted(CASCADE_DIGESTS))
    def test_cascade_stream_unchanged(self, key):
        shape, depth, seed = key
        assert _digest(generate_cascade(CascadeSpec(depth, shape, 1.0, seed))) == CASCADE_DIGESTS[key]

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
        lam = _embedding_eigenvalues(_fgn_gamma(0.7, 2.0, 2**10))
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


# Independent references: a lag list and index gathers, np.where, and
# Box-Muller on fresh arrays, which the lags and normals must equal byte
# for byte; and the full complex 2N-point circulant (fft of the whole
# row, ifft of the conjugate-mirrored draw), which the real-input
# transforms must match within 10x the largest distance measured,
# relative to the largest eigenvalue and to the standard deviation.
def _reference_fgn_gamma(hurst, variance, first, last):
    two_h = 2.0 * hurst
    base = max(first - 1, 0)
    lags = np.arange(base, last + 2, dtype=float).tolist()
    power = np.fromiter(map(pow, lags, repeat(two_h)), float, len(lags))
    lag = np.arange(first, last + 1)
    return 0.5 * variance * ((power[lag + 1 - base] - 2.0 * power[lag - base])
                             + power[np.abs(lag - 1) - base])


def _reference_eigenvalues(gamma):
    n = gamma.size - 1
    row = np.concatenate([gamma[:n], gamma[n:n + 1], gamma[1:n][::-1]])
    lam = np.fft.fft(row).real
    return np.where(lam < 0.0, 0.0, lam)


def _reference_normals(rng, count):
    pairs = (count + 1) // 2
    u = rng.random(2 * pairs)
    u1 = 1.0 - u[0::2]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:count]


def _reference_fgn(hurst, variance, n, seed):
    root = np.sqrt(_reference_eigenvalues(_reference_fgn_gamma(hurst, variance, 0, n)))
    z = _reference_normals(make_rng(seed), 2 * n)
    g = np.empty(2 * n, dtype=complex)
    g[0] = z[0]
    g[n] = z[1]
    g[1:n] = (z[2:n + 1] + 1j * z[n + 1:2 * n]) / np.sqrt(2.0)
    g[n + 1:] = np.conj(g[1:n][::-1])
    g *= root
    return np.fft.ifft(g).real[:n] * np.sqrt(2.0 * n)


HURSTS = [0.05, 0.3, 0.5, 0.8, 0.95]


class TestInPlaceSynthesisBytes:
    @pytest.mark.parametrize("hurst", HURSTS)
    @pytest.mark.parametrize("first, last", [(0, 0), (0, 1), (0, 2**17), (1, 1), (1, 300),
                                             (2, 2), (2, 3), (5, 4096), (1000, 1031)])
    def test_gamma(self, hurst, first, last):
        """Lags first..last of _fgn_gamma's vector, and fgn_autocovariance at
        each of them, are the reference's doubles."""
        expected = _reference_fgn_gamma(hurst, 1.7, first, last).tobytes()
        assert _fgn_gamma(hurst, 1.7, last)[first:].tobytes() == expected
        single = [fgn_autocovariance(hurst, 1.7, k) for k in range(first, last + 1)]
        assert np.array(single).tobytes() == expected

    @pytest.mark.parametrize("hurst", HURSTS)
    @pytest.mark.parametrize("n", [16, 2**10, 2**17])
    def test_eigenvalues_and_root(self, hurst, n):
        """The N+1 distinct eigenvalues, within 7e-15 x the largest (the
        largest distance measured is 7.4e-16), and their square roots."""
        gamma = _fgn_gamma(hurst, 2.5, n)
        lam = _embedding_eigenvalues(gamma)
        expected = _reference_eigenvalues(gamma)
        assert lam.size == n + 1
        np.testing.assert_allclose(lam, expected[:n + 1], rtol=0.0, atol=7e-15 * expected.max())
        root = _root_spectrum(hurst, 2.5, n)
        assert root.size == n + 1
        assert root.tobytes() == np.sqrt(lam).tobytes()

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 1000, 1001, 2**17 + 1])
    def test_normals(self, count):
        assert (standard_normals(make_rng(11), count).tobytes()
                == _reference_normals(make_rng(11), count).tobytes())

    @pytest.mark.parametrize("hurst", HURSTS)
    @pytest.mark.parametrize("n, seed", [(16, 0), (2**12, 3), (2**17, 5)])
    def test_generate_fgn(self, hurst, n, seed):
        """Within 2e-13 standard deviations of the complex route (the
        largest distance measured is 2.3e-14)."""
        samples = generate_fgn(FgnSpec(hurst, n, 1.3, seed)).samples
        np.testing.assert_allclose(samples, _reference_fgn(hurst, 1.3, n, seed),
                                   rtol=0.0, atol=2e-13 * np.sqrt(1.3))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSynthesisPeak:
    """Traced peaks at 2^17 (one N-double is 1 MiB). The real-input
    transforms hold half spectra: N+1 complex values, 2 N-doubles."""

    N = 2**17

    def test_cold_root_spectrum(self):
        """gamma (N), the real row (2N) and its rfft (2N), the row freed
        before the rfft's real part (N) is copied out: 5.0 N-doubles; the
        complex 2N-point fft of a complex row peaked at 7.1."""
        _root_spectrum.cache_clear()
        assert _traced_peak(lambda: _root_spectrum(0.8, 1.0, self.N)) < 5.5 * 8 * self.N

    def test_warm_generate_fgn(self):
        """The normals (2N) and the Hermitian half draw built from them
        (2N); then, the normals freed, the draw and its irfft (2N), and,
        the draw freed, the irfft and the samples (N): 4.0 N-doubles; the
        complex 2N-point ifft peaked at 6.1."""
        generate_fgn(FgnSpec(0.8, self.N, 1.0, 1))
        assert _traced_peak(lambda: generate_fgn(FgnSpec(0.8, self.N, 1.0, 2))) < 4.5 * 8 * self.N


class TestGenerateCascade:
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


def _cascade_rng(seed):
    return np.random.Generator(make_rng(seed).bit_generator.jumped())


def _reference_cascade(spec):
    """The cascade drawn level by level, one beta call per level."""
    rng = _cascade_rng(spec.seed)
    a = spec.multiplier_param
    masses = np.array([spec.total_mass])
    for _ in range(spec.depth):
        w = rng.beta(a, a, masses.size)
        children = np.empty(2 * masses.size)
        children[0::2] = masses * w
        children[1::2] = masses * (1.0 - w)
        masses = children
    return masses


def _multipliers(masses):
    """Each split's left share, level by level, read back from the cells."""
    shares = []
    while masses.size > 1:
        pairs = masses.reshape(-1, 2)
        parent = pairs.sum(axis=1)
        shares.insert(0, pairs[:, 0] / parent)
        masses = parent
    return np.concatenate(shares)


class TestCascadeStream:
    @pytest.mark.parametrize("shape", [2.0, 0.5])
    def test_one_draw_is_the_level_draws(self, shape):
        """One beta call of 2**depth - 1 values gives the bytes of one call
        per level, and the cascade built from the level draws."""
        depth, seed = 10, 4
        one = _cascade_rng(seed).beta(shape, shape, 2**depth - 1)
        rng = _cascade_rng(seed)
        levels = np.concatenate([rng.beta(shape, shape, 2**d) for d in range(depth)])
        assert one.tobytes() == levels.tobytes()
        spec = CascadeSpec(depth, shape, 1.5, seed)
        assert generate_cascade(spec).samples.tobytes() == _reference_cascade(spec).tobytes()

    def test_not_the_fgn_uniform_prefix(self):
        """With equal seeds the composite's cascade shares no draw with its
        fGn: the Beta(2,2) CDF 3w^2 - 2w^3 of each multiplier, read back
        from the composite, is none of the 2N uniforms the fGn's normals
        come from (an inverse-CDF cascade on the fGn's stream had them
        equal, one by one)."""
        depth, seed = 8, 7
        n = 2**depth
        x = generate_fgn(FgnSpec(0.7, n, 1.0, seed)).samples
        y = generate_multifractal(FgnSpec(0.7, n, 1.0, seed), CascadeSpec(depth, 2.0, 1.0, seed))
        w = _multipliers((y.samples / x) ** 2)
        u = w * w * (3.0 - 2.0 * w)
        prefix = make_rng(seed).random(2 * n)
        assert not np.isclose(u[:, None], prefix[None, :], rtol=0.0, atol=1e-9).any()

    def test_tiny_shape_exact_zero_and_one_multipliers(self):
        """Beta(0.01, 0.01) draws exact 0.0 and 1.0 multipliers: the cells
        stay >= 0, some exactly 0, the mass is conserved and the composite
        is finite."""
        spec = CascadeSpec(16, 0.01, 1.0, 3)
        w = _cascade_rng(3).beta(0.01, 0.01, 2**16 - 1)
        assert ((w == 0.0).sum(), (w == 1.0).sum()) == (17, 22643)
        masses = generate_cascade(spec).samples
        assert np.all(masses >= 0.0) and np.any(masses == 0.0)
        assert abs(math.fsum(masses) - 1.0) <= 2.0**-40
        composite = generate_multifractal(FgnSpec(0.7, 2**16, 1.0, 3), spec).samples
        assert np.all(np.isfinite(composite))


class TestGenerateMultifractal:
    def test_modulates_fgn_by_normalized_cascade(self):
        # bit for bit: the fGn sample times sqrt(N * mu), mu = m / total_mass,
        # at a total_mass that is not 1 (COMPOSITE_DIGEST pins a unit total)
        fgn = FgnSpec(0.7, 2**10, 1.0, 1)
        cascade = CascadeSpec(10, 2.0, 3.0, 2)
        m = generate_cascade(cascade).samples
        expected = generate_fgn(fgn).samples * np.sqrt(fgn.length * (m / cascade.total_mass))
        assert generate_multifractal(fgn, cascade).samples.tobytes() == expected.tobytes()

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
