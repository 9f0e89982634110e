#!/usr/bin/env python3
"""scalefit benchmark: one workload, one closed-loop client, timed from outside.

Usage (from the repository root):

    python3 bench/run.py --workload cli_fgn_2p17 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 1 --trace 0 --smoke

Workloads are described in bench/workloads.py and BENCHMARK.json. With
``--trace 0`` the run times whole operations and prints the end-to-end
metrics; with ``--trace 1`` it runs each operation twice on the same
input, untraced and then with every public scalefit function wrapped in
a span (bench/spans.py), and prints the per-layer metrics. The CLI
workload runs its commands as child processes untraced and through
``scalefit.cli.main`` in-process when traced.

The gated end-to-end metrics are set-up time (median of 15 fresh
interpreters spread over the run), the median generate and report step
of each trace family (averaged over families), and peak RSS.
Throughput, the median latency of a whole trace, |H_hat - H| and the
failed ratio are printed and recorded as well, but not gated.

``--smoke`` shrinks every workload to 2**12 samples and one operation,
for the benchmark's own tests (bench/test_smoke.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A longer record
with the machine, the thread cap and per-metric details is written to
``.bench_out/`` in the repository root, next to the spans of traced runs.
Nothing else is written outside ``.bench_work/``, which is removed at
the end of the run.
"""
from __future__ import annotations

import os
import sys

# Set before numpy loads; children inherit it. One thread per process
# keeps runs on a small shared machine repeatable, and makes a span's
# wall minus CPU time a wait time.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_fgn_2p17", "ensemble_2p16", "bootstrap_fgn_2p12")
SETUP_PROBES = 15
RUN_LIMIT_S = 150.0    # a run must end within 180 s, start-up included

UNITS = {
    "setup_s": "s", "generate_s": "s", "report_s": "s", "peak_rss_mb": "MB",
    "traces_per_s": "1/s", "trace_p50_ms": "ms",
    "hurst_abs_err": "1", "failed_ratio": "1",
}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["SCALEFIT_FIXED_CLOCK"] = "1"
    return env


def machine_info() -> dict:
    """nproc, CPU model, cache sizes and interpreter/library versions."""
    import numpy
    import scipy

    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor() or "unknown",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"l{level}_cache"] = size
    return info


def setup_probe(name, seed, log2n) -> float:
    """Wall time from spawning a fresh interpreter until the workload is
    ready to run its first operation (imports plus input preparation),
    read off CLOCK_MONOTONIC on both sides."""
    code = ("import sys, time; sys.path[:0] = [{src!r}, {bench!r}]; import workloads; "
            "workloads.make({name!r}, {seed}, {log2n}); "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))").format(
        src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed, log2n=log2n)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - t0


def measure(workload, seconds, traced, max_ops, probe=None, probes=0):
    """Closed loop: operations back to back while the next one, and the
    set-up probes still due, fit into ``seconds`` of wall time.

    The set-up probes are spread evenly over that time, between
    operations, so that a slow phase of a shared machine does not fall
    on all of them. Returns (records, tracer, untraced twins, set-up times).
    """
    from spans import Tracer

    records, twins, setups, durations = [], [], [], []
    tracer = Tracer() if traced else None
    start = time.perf_counter()

    def next_probe():
        t0 = time.perf_counter()
        setups.append(probe())
        return time.perf_counter() - t0

    with warnings.catch_warnings():
        # fit_loglog warns on every default report (order 1 outside (0, 1))
        warnings.simplefilter("ignore")
        probe_s = next_probe() if probes else 0.0
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            while len(setups) < probes and elapsed >= len(setups) * seconds / probes:
                probe_s = next_probe()
                elapsed = time.perf_counter() - start
            t0 = time.perf_counter()
            if traced:
                twins.append(workload.op(i))
                tracer.op, tracer.last = i, {}
                with tracer:
                    records.append(workload.op(i, tracer=tracer))
            else:
                records.append(workload.op(i))
            durations.append(time.perf_counter() - t0)
            i += 1
            if max_ops and i >= max_ops:
                break
            due = (probes - len(setups)) * probe_s
            if time.perf_counter() - start + due + statistics.median(durations) > seconds:
                break
    while len(setups) < probes:
        next_probe()
    return records, tracer, twins, setups


def family_median(records, step):
    """Mean over trace families of each family's median ``step``.

    Taking it per family gives the composite's cascade in ensemble_2p16
    the same weight in every run, whichever family the run ends on. A
    failed operation may have stopped early, so failed operations only
    count when nothing succeeded.
    """
    steps = {}
    for r in [r for r in records if r.ok] or records:
        steps.setdefault(r.family, []).append(getattr(r, step))
    return statistics.fmean(statistics.median(v) for v in steps.values())


def end_to_end(records, setups, rss_kb):
    latencies = [r.latency_s for r in records]
    errors = [e for r in records for e in r.hurst_err.values()]
    metrics = {
        "setup_s": statistics.median(setups),
        "generate_s": family_median(records, "generate_s"),
        "report_s": family_median(records, "report_s"),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    # printed and recorded, not gated
    extra = {
        "traces_per_s": len(records) / sum(latencies),
        "trace_p50_ms": 1000.0 * statistics.median(latencies),
        "hurst_abs_err": statistics.median(errors) if errors else float("nan"),
        "failed_ratio": sum(not r.ok for r in records) / len(records),
    }
    families = len({r.family for r in records})
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "generate_s": f"median of n={len(records)}, mean over {families} families",
        "report_s": f"median of n={len(records)}, mean over {families} families",
        "trace_p50_ms": f"median of n={len(records)}",
        "hurst_abs_err": f"median over {len(errors)} fGn estimates",
    }
    return metrics, extra, notes


def per_layer(records, tracer, twins):
    metrics = tracer.layer_metrics(len(records))
    traced = sum(r.latency_s for r in records) / len(records)
    untraced = sum(r.latency_s for r in twins) / len(twins)
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.unattributed_s"] = traced - metrics.pop("trace.attributed_s")
    errors = {}
    for r in records:
        for label, err in r.hurst_err.items():
            errors.setdefault(label, []).append(err)
    metrics["scaling.hurst_abs_err"] = statistics.median(errors.get("cumulant", [float("nan")]))
    metrics["wavelet.hurst_abs_err"] = statistics.median(errors.get("wavelet", [float("nan")]))
    return metrics


def run_one(args) -> int:
    import workloads

    log2n = workloads.SMOKE_LOG2_SIZE if args.smoke else workloads.LOG2_SIZE[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, args.seed, log2n, str(work_dir), _child_env(),
                                  inprocess=bool(args.trace))
        records, tracer, twins, setups = measure(
            workload, args.seconds, bool(args.trace), max_ops=1 if args.smoke else 0,
            probe=lambda: setup_probe(args.workload, args.seed, log2n),
            probes=0 if args.trace else (1 if args.smoke else SETUP_PROBES))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:     # another run's directory is still there
            pass

    failed = sum(not r.ok for r in records)
    notes, extra = {}, {}
    if args.trace:
        values = per_layer(records, tracer, twins)
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_kb = max((r.rss_kb for r in records), default=0) or own_rss
        values, extra, notes = end_to_end(records, setups, rss_kb)

    print(f"workload {args.workload}: 2^{log2n} samples, closed loop, 1 client, "
          f"seed {args.seed}, {len(records)} operations, trace {args.trace}")
    machine = machine_info()
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, value in {**values, **extra}.items():
        unit = units.get(name, UNITS.get(name, ""))
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    for r in records:
        for problem in r.problems:
            print(f"  FAILED: {problem}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(
        {**result, "workload": args.workload, "log2_size": log2n, "seed": args.seed,
         "seconds": args.seconds, "smoke": args.smoke, "machine": machine,
         "unreported": extra, "notes": notes,
         "samples": {"setup_s": setups, "generate_s": [r.generate_s for r in records],
                     "report_s": [r.report_s for r in records]}},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help=f"wall time of the measured loop, at most {RUN_LIMIT_S:g}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2**12 samples and one operation per workload")
    args = parser.parse_args(argv)
    if not (SRC / "scalefit" / "__init__.py").is_file():
        print(f"bench: no scalefit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 0 < args.seconds <= RUN_LIMIT_S:
        parser.error(f"--seconds must be in (0, {RUN_LIMIT_S:g}]")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
