"""scalefit: self-similar / multifractal traffic-trace synthesis and
scale-dependent Hurst exponent estimation.

Pipeline: synthesize (fGn, cascade, composite) -> aggregate over dyadic
block sizes -> estimate cumulants per scale -> fit log-log power laws
(Hurst spectrum, locality curves, knee detection), with an independent
wavelet logscale-diagram estimator for cross-checking. Both estimators
fit the same ScalingDiagram.
"""

from .aggregate import AggregatePyramid, aggregate, build_pyramid, dyadic_scales
from .cumulants import (
    CumulantTable,
    cumulant_scaling_table,
    empirical_cgf,
    sample_cumulants,
)
from .scaling import (
    HurstCurve,
    InsufficientScalesError,
    KneePoint,
    LocalityCurve,
    ScalingDiagram,
    ScalingFit,
    detect_knee,
    fit_loglog,
    hurst_spectrum,
    locality_curve,
)
from .synth import (
    CascadeSpec,
    FgnSpec,
    SynthesisError,
    Trace,
    fgn_autocovariance,
    generate_cascade,
    generate_fgn,
    generate_multifractal,
)
from .trace_io import TraceFormatError, read_trace, write_curve, write_trace
from .wavelet import (
    DwtResult,
    LogscaleDiagram,
    WaveletHurstFit,
    WaveletSpec,
    dwt,
    logscale_diagram,
    max_levels,
    wavelet_hurst,
    wavelet_locality_curve,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatePyramid",
    "CascadeSpec",
    "CumulantTable",
    "DwtResult",
    "FgnSpec",
    "HurstCurve",
    "InsufficientScalesError",
    "KneePoint",
    "LocalityCurve",
    "LogscaleDiagram",
    "ScalingDiagram",
    "ScalingFit",
    "SynthesisError",
    "Trace",
    "TraceFormatError",
    "WaveletHurstFit",
    "WaveletSpec",
    "aggregate",
    "build_pyramid",
    "cumulant_scaling_table",
    "detect_knee",
    "dwt",
    "dyadic_scales",
    "empirical_cgf",
    "fgn_autocovariance",
    "fit_loglog",
    "generate_cascade",
    "generate_fgn",
    "generate_multifractal",
    "hurst_spectrum",
    "locality_curve",
    "logscale_diagram",
    "max_levels",
    "read_trace",
    "sample_cumulants",
    "wavelet_hurst",
    "wavelet_locality_curve",
    "write_curve",
    "write_trace",
]
