#!/usr/bin/env python3
"""Stage harness: time every step of the scalefit chain, layer by layer.

For each trace length 2**L it runs the chain in one process, stage by
stage: the three generators, write_trace, read_trace, build_pyramid,
the cumulant table, logscale_diagram, the fits, the locality curves and
the knees. Each stage runs --repeats times on the same input and keeps
every run's wall time (runs_s), their minimum (min_s) and the minor
page faults (ru_minflt) of each run. Then it times the CLI's generate
-> report as child processes, fGn and composite, with every child's
wall time (runs_s), their minimum and the peak RSS. BLAS and OpenMP are
capped at one thread, as in bench/run.py.

The figures describe one tree on one host. Timings here are bimodal
with allocation history, and on a shared host the minimum of a few runs
moves 1.3-1.8x between back-to-back runs of the same tree, so runs_s
shows that spread beside min_s. A before/after claim needs bench/run.py's
pairs, which alternate the two trees run after run.

Usage (from the repository root):

    python3 scripts/bench_stages.py --out BENCH.json [--log2-sizes 16,20] [--repeats 5]

The JSON records the host (CPU model, logical CPUs, Python and numpy
versions) beside every figure.
"""
from __future__ import annotations

import os

# set before numpy loads; the CLI children inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import scalefit  # noqa: E402
from scalefit import (  # noqa: E402
    CascadeSpec,
    FgnSpec,
    WaveletSpec,
    build_pyramid,
    cumulant_scaling_table,
    detect_knee,
    fit_loglog,
    generate_cascade,
    generate_fgn,
    generate_multifractal,
    hurst_spectrum,
    locality_curve,
    logscale_diagram,
    read_trace,
    wavelet_hurst,
    wavelet_locality_curve,
    write_trace,
)
from scalefit.cumulants import DEFAULT_ORDER  # noqa: E402
from scalefit.scaling import DEFAULT_WINDOW_WIDTH  # noqa: E402
from scalefit.wavelet import default_fit_range, max_levels  # noqa: E402

SEED = 1
CLI_MODELS = ("fgn", "multifractal")


def host() -> dict:
    info = {"cpu_model": platform.processor() or "unknown",
            "logical_cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": 1}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return info


def chain(log2n: int, workdir: Path):
    """(stage, call) in chain order; each call returns the stage's output,
    and later calls read earlier outputs from ``out``."""
    n, out = 2**log2n, {}
    path = workdir / f"trace_{log2n}.csv"
    levels = max_levels(n)
    return out, [
        ("generate_fgn", lambda: generate_fgn(FgnSpec(0.8, n, 1.0, SEED))),
        ("generate_cascade", lambda: generate_cascade(CascadeSpec(log2n, 2.0, 1.0, SEED))),
        ("generate_multifractal", lambda: generate_multifractal(
            FgnSpec(0.7, n, 1.0, SEED), CascadeSpec(log2n, 2.0, 1.0, SEED + 1000))),
        ("write_trace", lambda: write_trace(out["generate_multifractal"], path)),
        ("read_trace", lambda: read_trace(path)),
        ("build_pyramid", lambda: build_pyramid(out["read_trace"])),
        ("cumulant_scaling_table",
         lambda: cumulant_scaling_table(out["build_pyramid"], DEFAULT_ORDER)),
        ("logscale_diagram",
         lambda: logscale_diagram(out["read_trace"], WaveletSpec("db4", levels))),
        ("fit_loglog", lambda: fit_loglog(out["cumulant_scaling_table"], 2)),
        ("hurst_spectrum", lambda: hurst_spectrum(out["cumulant_scaling_table"])),
        ("wavelet_hurst",
         lambda: wavelet_hurst(out["logscale_diagram"], *default_fit_range(levels))),
        ("locality_curve",
         lambda: locality_curve(out["cumulant_scaling_table"], 2, DEFAULT_WINDOW_WIDTH)),
        ("wavelet_locality_curve",
         lambda: wavelet_locality_curve(out["logscale_diagram"], DEFAULT_WINDOW_WIDTH)),
        ("detect_knee_cumulant", lambda: detect_knee(out["locality_curve"])),
        ("detect_knee_wavelet", lambda: detect_knee(out["wavelet_locality_curve"])),
    ]


def time_stages(log2n: int, repeats: int, workdir: Path) -> dict:
    out, stages = chain(log2n, workdir)
    result = {}
    for name, call in stages:
        seconds, minflt = [], []
        for _ in range(repeats):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            out[name] = call()
            seconds.append(time.perf_counter() - t0)
            minflt.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
        result[name] = {"min_s": min(seconds), "runs_s": seconds, "minflt": minflt}
    return result


# Linux starts a child's ru_maxrss at its parent's peak RSS (the old
# memory map's high-water mark survives exec), so each CLI step is
# started by this small interpreter rather than by the harness, which
# holds the stages' arrays: it runs the step and prints its wall time,
# exit code and rusage peak.
_LAUNCHER = """
import os, subprocess, sys, time
t0 = time.perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_child(argv, cwd: Path) -> dict:
    """One CLI step in a child process: its wall time and peak RSS."""
    env = dict(os.environ, SCALEFIT_FIXED_CLOCK="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(scalefit.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    launched = subprocess.run([sys.executable, "-c", _LAUNCHER,
                               sys.executable, "-m", "scalefit.cli", *argv],
                              cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    fields = launched.stdout.split()
    if launched.returncode != 0 or fields[1:2] != ["0"]:
        raise RuntimeError(f"scalefit {' '.join(argv)} failed: {launched.stderr}")
    wall, _, maxrss_kib = fields
    return {"wall_s": float(wall), "peak_rss_mb": int(maxrss_kib) / 1024.0}


def time_cli(log2n: int, repeats: int, workdir: Path) -> dict:
    result = {}
    for model in CLI_MODELS:
        trace = f"cli_{model}_{log2n}.csv"
        runs = {"generate": [], "report": []}
        for _ in range(repeats):
            runs["generate"].append(run_child(
                ["generate", "--model", model, "--length", str(2**log2n), "--seed", str(SEED),
                 "--out", trace], workdir))
            runs["report"].append(run_child(
                ["report", trace, "--outdir", f"rep_{model}_{log2n}"], workdir))
        result[model] = {step: {"min_wall_s": min(r["wall_s"] for r in rs),
                                "runs_s": [r["wall_s"] for r in rs],
                                "peak_rss_mb": max(r["peak_rss_mb"] for r in rs)}
                         for step, rs in runs.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument("--log2-sizes", default="16,20",
                        help="comma-separated log2 trace lengths [16,20]")
    parser.add_argument("--repeats", type=int, default=5, help="runs per stage [5]")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.log2_sizes.split(",")]
    # 2**12 is the shortest trace whose locality curves both carry a knee
    if args.repeats < 1 or any(s < 12 for s in sizes):
        parser.error("--repeats must be >= 1 and every size >= 12")
    record = {"host": host(), "repeats": args.repeats, "seed": SEED, "sizes": {}}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # estimator warnings (an H outside (0, 1)) are not the harness's business
        warnings.simplefilter("ignore")
        for log2n in sizes:
            record["sizes"][f"2^{log2n}"] = {
                "stages": time_stages(log2n, args.repeats, Path(tmp)),
                "cli": time_cli(log2n, args.repeats, Path(tmp)),
            }
            print(f"2^{log2n} done", file=sys.stderr)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
