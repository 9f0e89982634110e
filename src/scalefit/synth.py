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
from itertools import repeat

import numpy as np

from .rng import check_seed, make_rng, standard_normals

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


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_fgn_params(hurst, variance) -> None:
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must be in the open interval (0, 1), got {hurst}")
    _check_positive("variance", variance)


@dataclass(frozen=True)
class FgnSpec:
    """Parameters of a fractional Gaussian noise trace."""

    hurst: float
    length: int
    variance: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_fgn_params(self.hurst, self.variance)
        if not _is_power_of_two(self.length) or self.length < 16:
            raise ValueError(f"length must be a power of two >= 16, got {self.length}")
        check_seed(self.seed)


@dataclass(frozen=True)
class CascadeSpec:
    """Parameters of a conservative binary multiplicative cascade.

    Each dyadic interval splits its mass into fractions (W, 1-W) with
    W ~ Beta(multiplier_param, multiplier_param). ``equal_split`` is the
    degenerate infinite-shape limit: every split is exactly (1/2, 1/2),
    and no random draws are consumed.
    """

    depth: int
    multiplier_param: float = 2.0
    total_mass: float = 1.0
    seed: int = 0
    equal_split: bool = False

    def __post_init__(self):
        if not isinstance(self.depth, (int, np.integer)) or self.depth < 2:
            raise ValueError(f"depth must be an integer >= 2, got {self.depth}")
        _check_positive("multiplier_param", self.multiplier_param)
        _check_positive("total_mass", self.total_mass)
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
    """A finite real-valued increment series with generation metadata
    (trace_meta)."""

    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("samples must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must all be finite")

    def __len__(self):
        return self.samples.size


def fgn_autocovariance(hurst: float, variance: float, lag: int) -> float:
    """Closed-form autocovariance of fGn at a nonnegative integer lag.

    gamma(k) = (variance/2) * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H});
    gamma(0) = variance, and gamma(k) = 0 for all k >= 1 when H = 1/2.
    """
    _check_fgn_params(hurst, variance)
    if isinstance(lag, bool) or not (math.isfinite(lag) and lag >= 0 and int(lag) == lag):
        raise ValueError(f"lag must be a nonnegative integer, got {lag}")
    return float(_fgn_gamma(hurst, variance, int(lag), int(lag))[0])


def _fgn_gamma(hurst: float, variance: float, first: int, last: int) -> np.ndarray:
    """fgn_autocovariance's formula at lags first..last, for parameters
    already checked.

    Each |k|^{2H} is one Python float power, libm's pow (np.power
    differs from it in the last bit on some lags), taken once per lag
    and shared by the three lags that use it; the terms combine in the
    closed form's order, so a lag gets the same double whichever range
    holds it. generate_fgn needs lags 0..N once per (H, variance, N),
    through _root_spectrum.
    """
    two_h = 2.0 * hurst
    base = max(first - 1, 0)
    lags = np.arange(base, last + 2, dtype=float).tolist()
    power = np.fromiter(map(pow, lags, repeat(two_h)), float, len(lags))
    lag = np.arange(first, last + 1)
    return 0.5 * variance * ((power[lag + 1 - base] - 2.0 * power[lag - base])
                             + power[np.abs(lag - 1) - base])


def _embedding_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    """Spectrum of the length-2N circulant embedding of gamma(0..N).

    First row is [g0, ..., g_{N-1}, g_N, g_{N-1}, ..., g_1]. Eigenvalues
    more negative than -tol*max abort; small negatives are clamped to 0.
    """
    n = gamma.size - 1
    row = np.concatenate([gamma[:n], gamma[n:n + 1], gamma[1:n][::-1]])
    lam = np.fft.fft(row).real
    lam_max = lam.max()
    if lam.min() < -EMBEDDING_TOLERANCE * lam_max:
        raise SynthesisError(
            f"circulant embedding is not nonnegative definite "
            f"(min eigenvalue {lam.min():.3e} vs max {lam_max:.3e})"
        )
    return np.where(lam < 0.0, 0.0, lam)


@lru_cache(maxsize=_ROOT_SPECTRUM_CACHE_SIZE)
def _root_spectrum(hurst: float, variance: float, length: int) -> np.ndarray:
    """Square root of the circulant embedding spectrum of fGn with
    length samples, read-only: the seed-independent half of generate_fgn.

    Kept for the _ROOT_SPECTRUM_CACHE_SIZE most recent parameter sets, so
    a run over many seeds builds it once; each entry holds 2*length
    doubles, at most 4 x 16*length bytes in all (16 MB at 2^20). A
    SynthesisError is not cached: it is raised again on every call.
    """
    root = np.sqrt(_embedding_eigenvalues(_fgn_gamma(hurst, variance, 0, length)))
    root.flags.writeable = False
    return root


def generate_fgn(spec: FgnSpec) -> Trace:
    """Synthesize fGn by circulant embedding of the exact autocovariance.

    The sampled series has theoretical covariance fgn_autocovariance and
    zero mean. Output is deterministic given the spec seed. The root
    spectrum depends only on (H, variance, N) and is built once per
    parameter set (_root_spectrum); only the normals and the inverse FFT
    are drawn per call.
    """
    n = spec.length
    root = _root_spectrum(spec.hurst, spec.variance, n)
    z = standard_normals(make_rng(spec.seed), 2 * n)
    g = np.empty(2 * n, dtype=complex)
    g[0] = z[0]
    g[n] = z[1]
    g[1:n] = (z[2:n + 1] + 1j * z[n + 1:2 * n]) / np.sqrt(2.0)
    g[n + 1:] = np.conj(g[1:n][::-1])
    samples = np.fft.ifft(root * g).real[:n] * np.sqrt(2.0 * n)
    return Trace(samples, trace_meta("fgn", _spec_params(spec), spec.seed, _timestamp()))


def _cascade_masses(spec: CascadeSpec) -> np.ndarray:
    masses = np.array([spec.total_mass])
    if spec.equal_split:
        return masses[0] * np.full(2**spec.depth, 0.5**spec.depth)
    # imported here, so that only drawing Beta multipliers loads scipy
    from scipy.special import betaincinv

    rng = make_rng(spec.seed)
    a = spec.multiplier_param
    for _ in range(spec.depth):
        u = rng.random(masses.size)
        # keep W strictly inside (0, 1) even on the measure-zero u = 0 draw
        u = np.clip(u, 2.0**-53, 1.0 - 2.0**-53)
        w = betaincinv(a, a, u)
        children = np.empty(2 * masses.size)
        children[0::2] = masses * w
        children[1::2] = masses * (1.0 - w)
        masses = children
    return masses


def generate_cascade(spec: CascadeSpec) -> Trace:
    """Conservative binary cascade measure on 2**depth dyadic cells.

    Splits are drawn level by level, left to right: one uniform per
    split, mapped through the Beta(a, a) inverse CDF. Every split
    partitions the parent mass exactly, so the sample total equals
    total_mass up to floating-point rounding and all cells are >= 0.
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

    mu is the cascade measure normalized to unit total, so the expected
    energy of the composite equals that of the underlying fGn. In the
    equal-split limit mu(k) = 1/N and the composite reproduces the fGn
    sample for sample.
    """
    check_composite(fgn, cascade)
    base = generate_fgn(fgn)
    masses = _cascade_masses(cascade)
    mu = masses / math.fsum(masses)
    samples = base.samples * np.sqrt(fgn.length * mu)
    params = {**_spec_params(fgn), "fgn_seed": fgn.seed,
              **_spec_params(cascade), "cascade_seed": cascade.seed}
    return Trace(samples, trace_meta("multifractal", params, fgn.seed, _timestamp()))


def partial_sums(trace: Trace) -> Trace:
    """Cumulative process of an increment trace: y[k] = sum(x[:k+1]).

    Differencing the output recovers the input except for the first
    element, which equals itself.
    """
    params = {"source_model": trace.meta.get("model")}
    meta = trace_meta("partial_sums", params, trace.meta.get("seed"), _timestamp())
    return Trace(np.cumsum(trace.samples), meta)
