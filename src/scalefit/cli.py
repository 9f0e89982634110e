"""Command-line front end: generation -> aggregation -> estimation ->
plot-ready CSV reporting.

Exit codes: 0 success, 1 computation/estimation failure, 2 usage or
validation failure. Before any computation starts, every flag given is
checked by its owner's rule (_RULES) under the flag's name; the CLI
owns only the input-file rule and the rule that joins --j-lo and
--j-hi. The trace length is the only size input: generate sizes every
model by --length (a cascade's depth is its log2), and the pyramid and
the wavelet diagram take every scale and octave the length allows;
--j-lo and --j-hi pick the octaves a fit uses. Set the environment
variable SCALEFIT_FIXED_CLOCK to freeze recorded timestamps and make
generate -> report pipelines byte-reproducible.
"""
from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import cumulants, rng, scaling, synth, trace_io, wavelet
from .aggregate import aggregate as aggregate_series
from .aggregate import build_pyramid, check_block_size

# each flag's owner rule by dest, called as rule(value, "--flag") on every flag given
_RULES = {
    "hurst": synth.check_hurst, "variance": synth.check_positive,
    "length": synth.check_fgn_length, "seed": rng.check_seed,
    "multiplier": synth.check_positive, "mass": synth.check_positive,
    "cascade_seed": rng.check_seed, "max_order": cumulants.check_order,
    "order": cumulants.check_order, "scale": check_block_size,
    "window": scaling.check_window_width, "j_lo": scaling.check_finite,
    "j_hi": scaling.check_finite, "knee_threshold": scaling.check_knee_threshold,
}


def _build_parser():
    """The top-level parser and its subcommand parsers, by name."""
    parser = argparse.ArgumentParser(
        prog="scalefit",
        description=(
            "Synthesize self-similar / multifractal traces and estimate "
            "scale-dependent Hurst exponents via cumulant scaling and "
            "wavelet logscale diagrams."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several subcommands, each declared once
    trace, method, table, order, family, slide = (argparse.ArgumentParser(add_help=False)
                                                  for _ in range(6))
    trace.add_argument("input", help="trace CSV")
    method.add_argument("--method", choices=("cumulant", "wavelet"), default="cumulant",
                        help="estimator [cumulant]")
    table.add_argument("--max-order", type=int, default=cumulants.DEFAULT_ORDER,
                       help=f"highest cumulant order of the table [{cumulants.DEFAULT_ORDER}]")
    order.add_argument("--order", type=int, default=2,
                       help="cumulant order of the fit or locality curve [2]")
    family.add_argument("--family", choices=wavelet.FAMILIES, default="db4",
                        help="wavelet family [db4]")
    slide.add_argument("--window", type=int, default=scaling.DEFAULT_WINDOW_WIDTH,
                       help="locality window width in octaves "
                            f"[{scaling.DEFAULT_WINDOW_WIDTH}]")
    slide.add_argument("--knee-threshold", type=float, default=scaling.DEFAULT_KNEE_THRESHOLD,
                       help="share of the single-line SSE a knee must remove to be "
                            f"significant [{scaling.DEFAULT_KNEE_THRESHOLD}]")

    gen = sub.add_parser("generate", help="synthesize a trace and write it as CSV")
    gen.add_argument("--model", required=True, choices=("fgn", "cascade", "multifractal"))
    gen.add_argument("--hurst", type=float, default=0.7, help="Hurst exponent in (0,1) [0.7]")
    gen.add_argument("--length", type=int, default=65536,
                     help="trace length, a power of two >= 16; a cascade's cell count "
                          "[65536]")
    gen.add_argument("--variance", type=float, default=1.0, help="marginal variance [1.0]")
    gen.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed [0]")
    gen.add_argument("--multiplier", type=float, default=2.0,
                     help="Beta(a,a) shape of the cascade multiplier [2.0]")
    gen.add_argument("--mass", type=float, default=1.0, help="cascade total mass [1.0]")
    gen.add_argument("--cascade-seed", type=int, default=None,
                     help="cascade seed (defaults to --seed)")
    gen.add_argument("--out", required=True, help="output CSV path")

    agp = sub.add_parser("aggregate", parents=[trace],
                         help="block-aggregate a trace at one scale")
    agp.add_argument("--scale", type=int, required=True, help="block size n")
    agp.add_argument("--out", required=True, help="output CSV path")

    cum = sub.add_parser("cumulants", parents=[trace, table],
                         help="cumulant scaling table over dyadic scales")
    cum.add_argument("--out", required=True, help="output CSV path")

    hur = sub.add_parser("hurst", parents=[trace, method, order, table, family],
                         help="point estimate of the Hurst exponent")
    hur.add_argument("--j-lo", type=float, default=None,
                     help="lowest octave of the fit window [cumulant: finest scale; wavelet: 3]")
    hur.add_argument("--j-hi", type=float, default=None,
                     help="highest octave of the fit window "
                          "[cumulant: coarsest scale; wavelet: deepest octave - 1]")
    hur.add_argument("--out", default=None, help="optional CSV (spectrum or diagram)")

    loc = sub.add_parser("locality", parents=[trace, method, order, family, slide],
                         help="Hurst-vs-scale curve and knee report")
    loc.add_argument("--out", default=None, help="optional locality-curve CSV")

    rep = sub.add_parser("report", parents=[trace, table, order, family, slide],
                         help="full analysis bundle: 6 CSVs plus a manifest")
    rep.add_argument("--outdir", required=True, help="output directory (created if missing)")
    return parser, sub.choices


def _check(args):
    """Raise ValueError for the first invalid flag; keep generate's specs on args."""
    flags = vars(args)
    if "input" in flags and not os.path.exists(args.input):
        raise ValueError(f"input trace not found: {args.input}")
    for dest, rule in _RULES.items():
        if flags.get(dest) is not None:
            rule(flags[dest], "--" + dest.replace("_", "-"))
    if None not in (flags.get("j_lo"), flags.get("j_hi")) and args.j_lo >= args.j_hi:
        raise ValueError(f"--j-lo must be below --j-hi, got [{args.j_lo}, {args.j_hi}]")
    if args.command == "generate":
        args.fgn_spec = synth.FgnSpec(args.hurst, args.length, args.variance, args.seed)
        args.cascade_spec = synth.CascadeSpec(
            args.length.bit_length() - 1, args.multiplier, args.mass,
            args.seed if args.cascade_seed is None else args.cascade_seed)


def _summary_line(trace: synth.Trace) -> str:
    x = trace.samples
    with np.errstate(over="ignore", invalid="ignore"):  # nan for 1 sample, inf past float64
        variance = np.sum(np.square(x - x.mean())) / (x.size - 1)
    return (
        f"length={x.size} mean={x.mean():.6g} variance={variance:.6g} "
        f"seed={trace.meta.get('seed')}"
    )


def _cmd_generate(args) -> int:
    if args.model == "fgn":
        trace = synth.generate_fgn(args.fgn_spec)
    elif args.model == "cascade":
        trace = synth.generate_cascade(args.cascade_spec)
    else:
        trace = synth.generate_multifractal(args.fgn_spec, args.cascade_spec)
    trace_io.write_trace(trace, args.out)
    print(f"wrote {args.out} [{args.model}] {_summary_line(trace)}")
    return 0


def _cmd_aggregate(args) -> int:
    trace = trace_io.read_trace(args.input)
    series = aggregate_series(trace, args.scale)
    params = {"scale": args.scale, "source_model": trace.meta.get("model")}
    out = synth.Trace(series, synth.trace_meta("aggregate", params, trace.meta.get("seed"),
                                               trace.meta.get("created")))
    trace_io.write_trace(out, args.out)
    print(f"wrote {args.out} [aggregate scale={args.scale}] {_summary_line(out)}")
    return 0


def _table_for(trace, *orders):
    """Cumulant table deep enough for every order given."""
    return cumulants.cumulant_scaling_table(build_pyramid(trace), max(orders))


def _cmd_cumulants(args) -> int:
    trace = trace_io.read_trace(args.input)
    table = _table_for(trace, args.max_order)
    trace_io.write_curve(table, args.out)
    usable = sum(table.usable.values())
    print(f"wrote {args.out}: orders {table.orders[0]}..{table.orders[-1]} x "
          f"{len(table.scales)} scales ({usable}/{len(table.values)} cells usable)")
    return 0


def _diagram_for(trace, family):
    """The wavelet diagram of every octave the trace length allows, and its depth."""
    levels = wavelet.max_levels(len(trace))
    return wavelet.logscale_diagram(trace, wavelet.WaveletSpec(family, levels)), levels


def _fit_window(args, default):
    """--j-lo/--j-hi, each falling back to the method's default endpoint."""
    return (default[0] if args.j_lo is None else args.j_lo,
            default[1] if args.j_hi is None else args.j_hi)


def _knees(curves):
    """Each method's knee, or the reason its curve is too short for one."""
    knees, omitted = {}, {}
    for method, curve in curves.items():
        try:
            knees[method] = scaling.detect_knee(curve)
        except ValueError as exc:
            omitted[method] = str(exc)
    return knees, omitted


def _cmd_hurst(args) -> int:
    trace = trace_io.read_trace(args.input)
    if args.method == "wavelet":
        diagram, levels = _diagram_for(trace, args.family)
        j_lo, j_hi = _fit_window(args, wavelet.default_fit_range(levels))
        fit = wavelet.wavelet_hurst(diagram, j_lo, j_hi)
        print(f"method=wavelet family={args.family} octaves=[{j_lo:g},{j_hi:g}]")
        print(f"alpha = {fit.alpha:.4f}  r2 = {fit.r_squared:.4f}")
        print(f"Hurst estimate: {fit.hurst:.4f}")
        if args.out:
            trace_io.write_curve(diagram, args.out)
        return 0
    table = _table_for(trace, args.max_order, args.order)
    octaves = np.log2(table.scales)
    window = _fit_window(args, (octaves[0], octaves[-1]))
    spectrum = scaling.hurst_spectrum(table, window)
    if args.order in spectrum.omitted:
        raise scaling.InsufficientScalesError(spectrum.omitted[args.order])
    fit = spectrum.entries[args.order]
    print(f"method=cumulant order={args.order} "
          f"octaves=[{fit.window[0]:g},{fit.window[1]:g}] points={fit.points_used}")
    for m, entry in sorted(spectrum.entries.items()):
        print(f"H({m}) = {entry.hurst():.4f}  (r2 = {entry.r_squared:.4f})")
    for m in sorted(spectrum.omitted):
        print(f"H({m}): omitted - {spectrum.omitted[m]}")
    if args.out:
        trace_io.write_curve(spectrum, args.out)
    print(f"Hurst estimate: {fit.hurst():.4f}  (slope {fit.slope:.4f}, r2 {fit.r_squared:.4f})")
    return 0


def _cmd_locality(args) -> int:
    trace = trace_io.read_trace(args.input)
    if args.method == "cumulant":
        table = _table_for(trace, args.order)
        curve = scaling.locality_curve(table, args.order, args.window)
    else:
        diagram, _ = _diagram_for(trace, args.family)
        curve = wavelet.wavelet_locality_curve(diagram, args.window)
    print(f"locality curve: {len(curve.points)} windows of {args.window} octaves "
          f"(method={args.method})")
    knees, omitted = _knees({args.method: curve})
    for reason in omitted.values():
        print(f"no knee: {reason}")
    for knee in knees.values():
        print(f"knee octave {knee.octave:g}: slopes {knee.left_slope:+.4f} -> "
              f"{knee.right_slope:+.4f}, sse_reduction {knee.sse_reduction:.3e} "
              f"({100 * knee.fraction:.1f}% of single-line SSE)")
        if not knee.significant(args.knee_threshold):
            print(f"no significant knee (reduction below {100 * args.knee_threshold:g}% "
                  "threshold)")
    if args.out:
        trace_io.write_curve(curve, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    trace = trace_io.read_trace(args.input)
    table = _table_for(trace, args.max_order, args.order)
    spectrum = scaling.hurst_spectrum(table)
    diagram, levels = _diagram_for(trace, args.family)
    curves = {"cumulant": scaling.locality_curve(table, args.order, args.window),
              "wavelet": wavelet.wavelet_locality_curve(diagram, args.window)}
    knees, omitted_knees = _knees(curves)
    settings = {"order": args.order, "window": args.window, "family": args.family,
                "levels": levels, "knee_threshold": args.knee_threshold}
    trace_io.write_report(args.outdir, args.input, table, spectrum, diagram, curves, knees,
                          settings, omitted_knees)
    print(f"wrote {len(trace_io.REPORT_FILES)} CSVs + manifest to {args.outdir}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "aggregate": _cmd_aggregate,
    "cumulants": _cmd_cumulants,
    "hurst": _cmd_hurst,
    "locality": _cmd_locality,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    try:
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        _check(args)
    except ValueError as exc:
        # prints the subcommand's usage and "scalefit <cmd>: error: ...", exits 2
        commands[args.command].error(str(exc))
    with warnings.catch_warnings():  # one line per warning shown; "error" filters still raise
        warnings.showwarning = lambda message, *_: print(
            f"scalefit {args.command}: warning: {message}", file=sys.stderr)
        try:
            return _COMMANDS[args.command](args)
        except (ValueError, RuntimeError, OSError) as exc:
            print(f"scalefit {args.command}: error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
