#!/usr/bin/env python3
"""Reproduce the locality-phenomenon datasets.

Generates three trace families (fGn H=0.6, fGn H=0.8, and the
cascade-modulated composite with H=0.7, a=2), estimates Hurst-vs-scale
locality curves with both the cumulant and the wavelet estimator, and
writes seed-averaged plot-ready CSVs plus per-family knee summaries.

Usage:
    python scripts/reproduce_locality.py --outdir results [--seeds 10]
"""
from __future__ import annotations

import argparse
import os

import numpy as np

from scalefit import (
    CascadeSpec,
    FgnSpec,
    LocalityCurve,
    WaveletSpec,
    build_pyramid,
    cumulant_scaling_table,
    detect_knee,
    fit_loglog,
    generate_fgn,
    generate_multifractal,
    locality_curve,
    logscale_diagram,
    wavelet_hurst,
    wavelet_locality_curve,
    write_curve,
)

LENGTH = 2**16
FAMILIES = {
    "fgn_h06": lambda seed: generate_fgn(FgnSpec(0.6, LENGTH, 1.0, seed)),
    "fgn_h08": lambda seed: generate_fgn(FgnSpec(0.8, LENGTH, 1.0, seed)),
    "composite_h07_a2": lambda seed: generate_multifractal(
        FgnSpec(0.7, LENGTH, 1.0, seed), CascadeSpec(16, 2.0, 1.0, 1000 + seed)
    ),
}


def mean_curve(curves):
    """Seed average of locality curves over the same windows."""
    first = curves[0]
    values = np.array([c.estimates() for c in curves]).mean(axis=0)
    return LocalityCurve(tuple(zip(first.centers(), values)), first.window_width)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    import warnings

    for name, make in FAMILIES.items():
        cum_curves, wav_curves = [], []
        cum_h, wav_h = [], []
        for seed in range(args.seeds):
            trace = make(seed)
            table = cumulant_scaling_table(build_pyramid(trace), 2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cum_curves.append(locality_curve(table, 2))
                cum_h.append(fit_loglog(table, 2, (0, 10)).hurst())
                diagram = logscale_diagram(trace, WaveletSpec("haar", 13))
                wav_curves.append(wavelet_locality_curve(diagram))
                wav_h.append(wavelet_hurst(diagram, 3, 12).hurst)
        for kind, curves in (("cumulant", cum_curves), ("wavelet", wav_curves)):
            curve = mean_curve(curves)
            write_curve(curve, os.path.join(args.outdir, f"{name}_locality_{kind}.csv"))
            knee = detect_knee(curve)
            print(
                f"{name} [{kind}]: H_mean={np.mean(cum_h if kind == 'cumulant' else wav_h):.4f} "
                f"knee@{knee.octave:g} slopes {knee.left_slope:+.4f}->{knee.right_slope:+.4f} "
                f"({100 * knee.fraction:.0f}% SSE reduction)"
            )
    print(f"curves written to {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
