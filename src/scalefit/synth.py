"""Trace synthesis: fractional Gaussian noise, conservative binary
cascades, and the cascade-modulated composite model.

The composite trace is an energy-preserving modulation of fGn by the
square root of a normalized cascade measure. It is a documented
stand-in for a refined multifractal traffic model whose exact closed
form is not fixed here; it keeps the fGn marginal variance while
injecting scale-dependent (multifractal) variability, so Hurst
estimates drift with the analysis scale.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, repeat

import numpy as np

from .aggregate import check_samples
from .rng import check_integer, check_seed, make_rng, standard_normals

FIXED_CLOCK_ENV = "SCALEFIT_FIXED_CLOCK"
FIXED_CLOCK_VALUE = "1970-01-01T00:00:00Z"

# Relative threshold below which negative circulant eigenvalues abort
# synthesis; values between -tol*max and 0 are clamped to zero.
EMBEDDING_TOLERANCE = 1e-8

# (hurst, variance, length) parameter sets whose fGn root spectrum is kept
_ROOT_SPECTRUM_CACHE_SIZE = 4


class SynthesisError(RuntimeError):
    """Covariance embedding produced spectral values too negative to clamp."""


def _timestamp() -> str:
    if os.environ.get(FIXED_CLOCK_ENV):
        return FIXED_CLOCK_VALUE
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def check_hurst(hurst, name: str = "hurst") -> None:
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"{name} must be in the open interval (0, 1), got {hurst}")


def check_fgn_length(length, name: str = "length") -> int:
    return check_integer(length, name, lambda n: n >= 16 and not n & (n - 1),
                         "a power of two >= 16")


def check_depth(depth, name: str = "depth") -> int:
    return check_integer(depth, name, lambda d: d >= 2, "an integer >= 2")


def check_positive(value, name: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class FgnSpec:
    """Parameters of a fractional Gaussian noise trace."""

    hurst: float
    length: int
    variance: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_hurst(self.hurst)
        check_positive(self.variance, "variance")
        check_fgn_length(self.length)
        check_seed(self.seed)


@dataclass(frozen=True)
class CascadeSpec:
    """Parameters of a conservative binary multiplicative cascade.

    Each dyadic interval splits its mass into fractions (W, 1-W) with
    W ~ Beta(multiplier_param, multiplier_param).
    """

    depth: int
    multiplier_param: float = 2.0
    total_mass: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_depth(self.depth)
        check_positive(self.multiplier_param, "multiplier_param")
        check_positive(self.total_mass, "total_mass")
        check_seed(self.seed)


# the generation metadata every trace carries, and its sidecar with it
META_FIELDS = ("model", "params", "seed", "created")


def trace_meta(model, params, seed, created) -> dict:
    """A trace's generation metadata, keyed by META_FIELDS; params of None
    (a source that recorded none) becomes {}."""
    return dict(zip(META_FIELDS, (model, {} if params is None else params, seed, created)))


def _spec_params(spec) -> dict:
    """A spec's fields but its seed, which trace metadata keeps apart."""
    return {name: value for name, value in vars(spec).items() if name != "seed"}


@dataclass
class Trace:
    """An increment series that passes aggregate.check_samples, with
    generation metadata (trace_meta)."""

    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = check_samples(self.samples)

    def __len__(self):
        return self.samples.size


def fgn_autocovariance(hurst: float, variance: float, lag: int) -> float:
    """Closed-form autocovariance of fGn at a nonnegative integer lag.

    gamma(k) = (variance/2) * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H});
    gamma(0) = variance, and gamma(k) = 0 for all k >= 1 when H = 1/2.
    O(1) at any lag: three libm pow calls, combined in the order
    _fgn_gamma combines them, so it returns _fgn_gamma's double.
    """
    check_hurst(hurst)
    check_positive(variance, "variance")
    lag = check_integer(lag, "lag", lambda k: k >= 0, "a nonnegative integer")
    k, two_h = float(lag), 2.0 * hurst
    return (pow(k + 1.0, two_h) - 2.0 * pow(k, two_h) + pow(abs(k - 1.0), two_h)) * (
        0.5 * variance)


def _fgn_gamma(hurst: float, variance: float, last: int) -> np.ndarray:
    """fgn_autocovariance's formula at lags 0..last, for parameters
    already checked.

    Each k^{2H} is one Python float power, libm's pow (np.power differs
    from it in the last bit on some lags), taken once per lag as the
    lags stream into one array, with no list of them, and shared by the
    three lags that use it; the terms combine in place, in the closed
    form's order. generate_fgn needs lags 0..N once per (H, variance, N),
    through _root_spectrum: one array of N+2 powers and the N+1 results.
    """
    two_h = 2.0 * hurst
    # count's float steps are exact: every lag is an integer below 2**53
    power = np.fromiter(map(pow, count(0.0), repeat(two_h)), float, last + 2)
    # power[k] is k^{2H}; lag k's terms are power[k + 1], power[k] and
    # power[|k - 1|], where lag 0's |k - 1| term is power[1]
    gamma = 2.0 * power[:-1]
    np.subtract(power[1:], gamma, out=gamma)
    gamma[0] += power[1]
    gamma[1:] += power[:-2]
    gamma *= 0.5 * variance
    return gamma


def _embedding_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    """The N+1 distinct eigenvalues of the length-2N circulant embedding
    of gamma(0..N).

    The first row [g0, ..., g_{N-1}, g_N, g_{N-1}, ..., g_1] is real and
    even, so its spectrum is real and even too: lambda_k = lambda_{2N-k},
    and the real part of the row's rfft is lambda_0..lambda_N, the whole
    spectrum. The row is 2N real doubles; the rfft's N+1 complex values
    are freed once their real part is copied out.
    Eigenvalues more negative than -tol*max abort; small negatives are
    clamped to 0 in place (-0.0 and NaN are kept, as np.where keeps them).
    """
    n = gamma.size - 1
    row = np.empty(2 * n)
    row[:n + 1] = gamma
    row[n + 1:] = gamma[n - 1:0:-1]
    spectrum = np.fft.rfft(row)
    del row
    lam = spectrum.real.copy()
    del spectrum
    lam_max = lam.max()
    if lam.min() < -EMBEDDING_TOLERANCE * lam_max:
        raise SynthesisError(
            f"circulant embedding is not nonnegative definite "
            f"(min eigenvalue {lam.min():.3e} vs max {lam_max:.3e})"
        )
    lam[lam < 0.0] = 0.0
    return lam


@lru_cache(maxsize=_ROOT_SPECTRUM_CACHE_SIZE)
def _root_spectrum(hurst: float, variance: float, length: int) -> np.ndarray:
    """Square roots of the length+1 distinct circulant embedding
    eigenvalues of fGn with length samples, read-only: the
    seed-independent half of generate_fgn.

    Kept for the _ROOT_SPECTRUM_CACHE_SIZE most recent parameter sets, so
    a run over many seeds builds it once; each entry holds length+1
    doubles, at most 4 x 8*length bytes in all (8 MB at 2^20). A
    SynthesisError is not cached: it is raised again on every call.
    """
    root = _embedding_eigenvalues(_fgn_gamma(hurst, variance, length))
    np.sqrt(root, out=root)
    root.flags.writeable = False
    return root


def generate_fgn(spec: FgnSpec) -> Trace:
    """Synthesize fGn by circulant embedding of the exact autocovariance.

    The sampled series has theoretical covariance fgn_autocovariance and
    zero mean. Output is deterministic given the spec seed. The root
    spectrum depends only on (H, variance, N) and is built once per
    parameter set (_root_spectrum); only the normals and the inverse FFT
    are drawn per call. The spectral draw of the 2N-point circulant is
    conjugate-symmetric, so only its Hermitian half g[0..N] is filled
    (g[0] = z_0, g[N] = z_1, g[k] = (z_{k+1} + i z_{N+k}) / sqrt(2)) and
    one real-output inverse FFT (irfft, the same 1/(2N) norm as ifft)
    gives the series. The normals are freed before the transform and the
    draw after it, so a call holds at most two 2N-double buffers; the
    samples are a fresh N-array, not a view of the 2N-point output.
    """
    n = spec.length
    root = _root_spectrum(spec.hurst, spec.variance, n)
    z = standard_normals(make_rng(spec.seed), 2 * n)
    g = np.empty(n + 1, dtype=complex)
    g[0] = z[0]
    g[n] = z[1]
    g.real[1:n] = z[2:n + 1]
    g.imag[1:n] = z[n + 1:]
    del z  # the normals are freed before the inverse FFT
    g[1:n] /= np.sqrt(2.0)
    g *= root
    series = np.fft.irfft(g, 2 * n)
    del g
    samples = series[:n] * np.sqrt(2.0 * n)
    return Trace(samples, trace_meta("fgn", _spec_params(spec), spec.seed, _timestamp()))


def _cascade_masses(spec: CascadeSpec) -> np.ndarray:
    """The cascade's 2**depth cell masses. All 2**depth - 1 multipliers
    come from one Generator.beta call on the spec seed's Philox key,
    jumped 2**128 draws ahead: generate_fgn with the same seed reads
    only the first 2N uniforms of that key, so the two never share a
    draw. Level d splits its 2**d masses with the next 2**d multipliers,
    left to right."""
    rng = np.random.Generator(make_rng(spec.seed).bit_generator.jumped())
    a = spec.multiplier_param
    w = rng.beta(a, a, 2**spec.depth - 1)
    masses = np.array([spec.total_mass])
    for _ in range(spec.depth):
        split = w[masses.size - 1:2 * masses.size - 1]
        children = np.empty(2 * masses.size)
        children[0::2] = masses * split
        children[1::2] = masses * (1.0 - split)
        masses = children
    return masses


def generate_cascade(spec: CascadeSpec) -> Trace:
    """Conservative binary cascade measure on 2**depth dyadic cells.

    Every split draws W ~ Beta(a, a) from the cascade's own stream
    (_cascade_masses) and gives the left child W and the right 1 - W of
    the parent mass. Every split partitions the parent mass, so the
    sample total equals total_mass up to floating-point rounding and all
    cells are >= 0 (a split of W = 0 or 1, possible for a tiny a, leaves
    a cell of exactly 0).
    """
    return Trace(_cascade_masses(spec),
                 trace_meta("cascade", _spec_params(spec), spec.seed, _timestamp()))


def check_composite(fgn: FgnSpec, cascade: CascadeSpec) -> None:
    """The composite's rule: one cascade cell per fGn sample."""
    if fgn.length != 2**cascade.depth:
        raise ValueError(f"length {fgn.length} must equal 2**depth = {2**cascade.depth}, "
                         f"the cell count of the cascade")


def generate_multifractal(fgn: FgnSpec, cascade: CascadeSpec) -> Trace:
    """Cascade-modulated composite: x(k) * sqrt(N * mu(k)).

    mu is the cascade measure divided by its total_mass, which every
    split conserves up to rounding, so mu has unit total and the
    expected energy of the composite equals that of the underlying fGn
    x. The cascade draws from a Philox block the fGn never reaches, so
    the two are independent even when their seeds are equal.
    """
    check_composite(fgn, cascade)
    base = generate_fgn(fgn)
    mu = _cascade_masses(cascade)
    mu /= cascade.total_mass
    samples = base.samples * np.sqrt(fgn.length * mu)
    params = {**_spec_params(fgn), "fgn_seed": fgn.seed,
              **_spec_params(cascade), "cascade_seed": cascade.seed}
    return Trace(samples, trace_meta("multifractal", params, fgn.seed, _timestamp()))
