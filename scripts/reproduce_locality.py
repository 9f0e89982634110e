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
    generate_fgn,
    generate_multifractal,
    logscale_diagram,
    write_curve,
)
from scalefit.rng import check_integer
from scalefit.scaling import DEFAULT_WINDOW_WIDTH

LENGTH = 2**16
FAMILIES = {
    "fgn_h06": lambda seed: generate_fgn(FgnSpec(0.6, LENGTH, 1.0, seed)),
    "fgn_h08": lambda seed: generate_fgn(FgnSpec(0.8, LENGTH, 1.0, seed)),
    "composite_h07_a2": lambda seed: generate_multifractal(
        FgnSpec(0.7, LENGTH, 1.0, seed), CascadeSpec(16, 2.0, 1.0, 1000 + seed)
    ),
}
# estimator name -> (trace -> its ScalingDiagram, the octave window of its H fit)
ESTIMATORS = {
    "cumulant": (lambda trace: cumulant_scaling_table(build_pyramid(trace), 2).scaling_diagram(2),
                 (0, 10)),
    "wavelet": (lambda trace: logscale_diagram(trace, WaveletSpec("haar", 13)).scaling_diagram(),
                (3, 12)),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    try:
        check_integer(args.seeds, "--seeds", lambda n: n >= 1, "a positive integer")
    except ValueError as exc:
        parser.error(str(exc))
    os.makedirs(args.outdir, exist_ok=True)

    for name, make in FAMILIES.items():
        traces = [make(seed) for seed in range(args.seeds)]
        for kind, (diagram_of, window) in ESTIMATORS.items():
            diagrams = [diagram_of(trace) for trace in traces]
            curves = [diagram.locality(DEFAULT_WINDOW_WIDTH) for diagram in diagrams]
            # the seed-mean curve: windows are the same for every seed
            estimates = np.mean([curve.estimates() for curve in curves], axis=0)
            curve = LocalityCurve(tuple(zip(curves[0].centers(), estimates)), DEFAULT_WINDOW_WIDTH)
            write_curve(curve, os.path.join(args.outdir, f"{name}_locality_{kind}.csv"))
            knee = detect_knee(curve)
            print(
                f"{name} [{kind}]: H_mean={np.mean([d.fit(window).h for d in diagrams]):.4f} "
                f"knee@{knee.octave:g} slopes {knee.left_slope:+.4f}->{knee.right_slope:+.4f} "
                f"({100 * knee.fraction:.0f}% SSE reduction)"
            )
    print(f"curves written to {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
