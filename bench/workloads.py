"""The benchmark's workloads, one operation (one trace) at a time.

Every workload is a closed loop with one client: the next operation
starts only after the previous one has finished and been checked. All
inputs come from the run's ``--seed``; the program only ever sees the
generated traces and command lines.

* ``cli_fgn_2p17``: ``scalefit generate`` then ``scalefit report`` on
  an fGn H=0.8 trace of 2**17 samples, as child processes. The only
  workload through ``trace_io`` (CSV write in generate, CSV read in
  report), and it pays interpreter start-up and imports per command.
* ``ensemble_2p16``: the three families of
  ``scripts/reproduce_locality.py`` at 2**16, in one process. No
  ``trace_io``: the bypass control for CSV work; ``aggregate``,
  ``synth`` (with the composite's cascade) and ``cumulants`` dominate.
* ``bootstrap_fgn_2p12``: many fGn H=0.8 traces of 2**12 samples, the
  shortest size at which both locality curves keep the 6 points that
  ``detect_knee`` needs; per-call overhead and the fits show here.

An operation's output check never raises: problems are collected and
the operation counts as failed. Estimates are compared with a fixed
tolerance, never by hash, so a last-digit change in the arithmetic is
not a failure.
"""
from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import scalefit  # noqa: F401  (the import a library user pays, timed in setup_s)
from scalefit.wavelet import LogscaleDiagram, wavelet_hurst

# Looked up at call time, so a Tracer's patches are seen.
synth = importlib.import_module("scalefit.synth")
aggregate = importlib.import_module("scalefit.aggregate")
cumulants = importlib.import_module("scalefit.cumulants")
scaling = importlib.import_module("scalefit.scaling")
wavelet = importlib.import_module("scalefit.wavelet")

LOG2_SIZE = {"cli_fgn_2p17": 17, "ensemble_2p16": 16, "bootstrap_fgn_2p12": 12}
SMOKE_LOG2_SIZE = 12
WINDOW = 4          # locality window, octaves (the CLI default and the script's)
MAX_ORDER = 4       # cumulant table depth (the CLI default)
CHILD_TIMEOUT_S = 150.0


def hurst_tolerance(log2n: int) -> float:
    """|H_hat - H| allowed on fGn; about 6 standard deviations of the
    noisier estimator at each size, so a correct program never fails."""
    return 0.2 if log2n < 16 else 0.1


@dataclass
class Record:
    """Timings and check outcome of one operation (one trace)."""

    family: str
    generate_s: float = 0.0
    report_s: float = 0.0
    hurst_err: dict = field(default_factory=dict)   # estimator -> |H_hat - H|
    problems: list = field(default_factory=list)
    rss_kb: int = 0

    @property
    def latency_s(self) -> float:
        return self.generate_s + self.report_s

    @property
    def ok(self) -> bool:
        return not self.problems


class SeedStream:
    """Trace seeds derived from the run seed; the i-th is fixed by it."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._seeds = []

    def __getitem__(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.getrandbits(63))
        return self._seeds[i]


def _check_hurst(record, label, estimate, hurst, tol):
    err = abs(estimate - hurst)
    if not math.isfinite(err):
        record.problems.append(f"{label}: non-finite Hurst estimate {estimate!r}")
        return
    record.hurst_err[label] = err
    if err > tol:
        record.problems.append(f"{label}: H_hat={estimate:.4f}, |H_hat-H|={err:.4f} > {tol}")


# -- library workloads -------------------------------------------------------

class LibraryWorkload:
    """The in-memory chain of reproduce_locality.py over a family cycle."""

    def __init__(self, name: str, seed: int, log2n: int):
        self.name = name
        self.log2n = log2n
        self.length = 2**log2n
        self.seeds = SeedStream(seed)
        if name == "ensemble_2p16":
            self.families = (("fgn_h06", 0.6), ("fgn_h08", 0.8), ("composite_h07_a2", None))
        else:
            self.families = (("fgn_h08", 0.8),)
        self.tolerance = hurst_tolerance(log2n)

    def _synthesize(self, family, seed):
        if family == "composite_h07_a2":
            return synth.generate_multifractal(
                synth.FgnSpec(0.7, self.length, 1.0, seed),
                synth.CascadeSpec(self.log2n, 2.0, 1.0, seed + 1000),
            )
        hurst = 0.6 if family == "fgn_h06" else 0.8
        return synth.generate_fgn(synth.FgnSpec(hurst, self.length, 1.0, seed))

    def _analyse(self, trace):
        j = self.log2n
        table = cumulants.cumulant_scaling_table(aggregate.build_pyramid(trace), MAX_ORDER)
        spectrum = scaling.hurst_spectrum(table)
        h_cumulant = scaling.fit_loglog(table, 2, (0, j - 6)).hurst()
        curve_c = scaling.locality_curve(table, 2, WINDOW)
        knee_c = scaling.detect_knee(curve_c)
        diagram = wavelet.logscale_diagram(trace, wavelet.WaveletSpec("haar", j - 3))
        h_wavelet = wavelet.wavelet_hurst(diagram, 3, j - 4).hurst
        curve_w = wavelet.wavelet_locality_curve(diagram, WINDOW)
        knee_w = scaling.detect_knee(curve_w)
        return table, spectrum, h_cumulant, curve_c, knee_c, h_wavelet, curve_w, knee_w

    def op(self, i: int, **_) -> Record:
        """Synthesize and analyse the i-th trace; spans come from patching."""
        family, hurst = self.families[i % len(self.families)]
        record = Record(family)
        try:
            t0 = time.perf_counter()
            trace = self._synthesize(family, self.seeds[i])
            t1 = time.perf_counter()
            result = self._analyse(trace)
            t2 = time.perf_counter()
        except Exception as exc:  # a failed operation is counted, not raised
            record.problems.append(f"{family}: {type(exc).__name__}: {exc}")
            return record
        record.generate_s, record.report_s = t1 - t0, t2 - t1
        self._check(record, trace, hurst, *result)
        return record

    def _check(self, record, trace, hurst, table, spectrum, h_cumulant, curve_c, knee_c,
               h_wavelet, curve_w, knee_w):
        j = self.log2n
        expected = {
            "trace samples": (len(trace), self.length),
            "cumulant cells": (len(table.values), MAX_ORDER * (j - 2)),
            "cumulant locality points": (len(curve_c.points), j - 5),
            "wavelet locality points": (len(curve_w.points), j - 6),
        }
        for label, (got, want) in expected.items():
            if got != want:
                record.problems.append(f"{label}: {got}, expected {want}")
        if 2 not in spectrum.entries:
            record.problems.append("hurst_spectrum has no order 2")
        for label, knee in (("cumulant knee", knee_c), ("wavelet knee", knee_w)):
            if not all(map(math.isfinite, (knee.octave, knee.left_slope, knee.right_slope))):
                record.problems.append(f"{label} is not finite: {knee}")
        if hurst is not None:
            _check_hurst(record, "cumulant", h_cumulant, hurst, self.tolerance)
            _check_hurst(record, "wavelet", h_wavelet, hurst, self.tolerance)


# -- CLI workload --------------------------------------------------------------

# The six CSVs of a ``report`` bundle, in manifest order, and their headers.
REPORT_HEADERS = {
    "cumulant_table.csv": ["order", "scale", "log2_abs_cumulant", "usable"],
    "hurst_spectrum.csv": ["order", "hurst", "r_squared"],
    "locality_cumulant.csv": ["octave", "hurst"],
    "locality_wavelet.csv": ["octave", "hurst"],
    "logscale_diagram.csv": ["octave", "log2_energy", "count"],
    "knees.csv": ["method", "octave", "left_slope", "right_slope", "sse_reduction",
                  "significant"],
}


def expected_report_rows(log2n: int) -> dict:
    """Data rows of each default ``report`` CSV for a 2**log2n trace.

    hurst_spectrum.csv is absent here: orders without enough usable
    scales are omitted, so only order 2 is guaranteed.
    """
    scales = log2n - 2           # dyadic scales 2**0 .. 2**(log2n-3)
    levels = log2n - 3           # db4 diagram octaves 1 .. max_levels
    return {
        "cumulant_table.csv": MAX_ORDER * scales,
        "locality_cumulant.csv": scales - WINDOW + 1,
        "locality_wavelet.csv": levels - WINDOW + 1,
        "logscale_diagram.csv": levels,
        "knees.csv": 2,
    }


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_report(record, outdir, log2n, hurst, tol):
    """Problems with a ``report`` bundle: files, headers, rows, estimates."""
    rows_wanted = expected_report_rows(log2n)
    tables = {}
    for name in REPORT_HEADERS:
        path = os.path.join(outdir, name)
        if not os.path.exists(path):
            record.problems.append(f"report: {name} missing")
            continue
        header, rows = _read_csv(path)
        if header != REPORT_HEADERS[name]:
            record.problems.append(f"report: {name} header {header}")
        want = rows_wanted.get(name)
        if want is not None and len(rows) != want:
            record.problems.append(f"report: {name} has {len(rows)} rows, expected {want}")
        tables[name] = rows
    try:
        with open(os.path.join(outdir, "manifest.json"), encoding="ascii") as fh:
            manifest = json.load(fh)
        if manifest.get("files") != list(REPORT_HEADERS):
            record.problems.append(f"report: manifest lists {manifest.get('files')}")
    except (OSError, ValueError) as exc:
        record.problems.append(f"report: manifest.json unreadable: {exc}")
    spectrum = {int(r[0]): float(r[1]) for r in tables.get("hurst_spectrum.csv", [])}
    if 2 in spectrum and math.isfinite(spectrum[2]):
        # full-range aggregated-variance fit, biased low at H=0.8: reported, not gated
        record.hurst_err["cumulant"] = abs(spectrum[2] - hurst)
    else:
        record.problems.append("report: hurst_spectrum.csv has no finite order-2 row")
    diagram_rows = tables.get("logscale_diagram.csv")
    if diagram_rows and len(diagram_rows) == rows_wanted["logscale_diagram.csv"]:
        octaves = tuple(int(r[0]) for r in diagram_rows)
        diagram = LogscaleDiagram(
            octaves=octaves,
            energy={j: 2.0 ** float(r[1]) for j, r in zip(octaves, diagram_rows)},
            counts={j: int(r[2]) for j, r in zip(octaves, diagram_rows)},
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                estimate = wavelet_hurst(diagram, 3, octaves[-1] - 1).hurst
            _check_hurst(record, "wavelet", estimate, hurst, tol)
        except ValueError as exc:
            record.problems.append(f"report: wavelet fit of the diagram failed: {exc}")


def check_trace_file(record, path, length):
    """The generated CSV has a header, `length` rows and a matching sidecar."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        with open(path + ".meta.json", encoding="ascii") as fh:
            declared = json.load(fh).get("length")
    except (OSError, ValueError) as exc:
        record.problems.append(f"generate: trace unreadable: {exc}")
        return
    if header != b"index,value\n" or rows != length or declared != length:
        record.problems.append(
            f"generate: header {header!r}, {rows} rows, sidecar length {declared}; "
            f"expected {length} rows")


def _run_child(argv, env, log_path, timeout):
    """Run ``python -m scalefit.cli argv``, reaped with os.wait4 for its
    rusage. Returns (wall seconds, exit code, max RSS in KiB, stderr)."""
    with open(log_path, "w+b") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "scalefit.cli", *argv],
                                stdout=subprocess.DEVNULL, stderr=log, env=env)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                proc.kill()

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            watchdog.cancel()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        stderr = log.read().decode("ascii", "replace")
    return elapsed, proc.returncode, usage.ru_maxrss, stderr


class CliWorkload:
    """``generate`` -> ``report`` on fGn H=0.8, by child process or in-process."""

    hurst = 0.8

    def __init__(self, name: str, seed: int, log2n: int, workdir=None, env=None,
                 inprocess=False):
        self.cli = importlib.import_module("scalefit.cli")
        self.name = name
        self.log2n = log2n
        self.length = 2**log2n
        self.seeds = SeedStream(seed)
        self.workdir = workdir
        self.env = env
        self.inprocess = inprocess
        self.tolerance = hurst_tolerance(log2n)

    def _argv(self, i):
        trace = os.path.join(self.workdir, f"trace{i}.csv")
        outdir = os.path.join(self.workdir, f"report{i}")
        generate = ["generate", "--model", "fgn", "--hurst", str(self.hurst),
                    "--length", str(self.length), "--seed", str(self.seeds[i]), "--out", trace]
        return trace, outdir, generate, ["report", trace, "--outdir", outdir]

    def _main(self, argv):
        """In-process ``scalefit.cli.main``: (exit code, what it printed)."""
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as exc:       # usage errors exit 2 through argparse
            code = exc.code
        except Exception as exc:        # a traceback is a failed operation
            code = 1
            sink.write(f"{type(exc).__name__}: {exc}")
        return code, sink.getvalue()

    def op(self, i: int, tracer=None) -> Record:
        trace, outdir, generate, report = self._argv(i)
        log = trace + ".log"
        record = Record("fgn_h08")
        try:
            if self.inprocess:
                t0 = time.perf_counter()
                rc_generate, out_generate = self._main(generate)
                t1 = time.perf_counter()
                rc_report, out_report = self._main(report)
                t2 = time.perf_counter()
                record.generate_s, record.report_s = t1 - t0, t2 - t1
            else:
                record.generate_s, rc_generate, rss_g, out_generate = _run_child(
                    generate, self.env, log, CHILD_TIMEOUT_S)
                record.report_s, rc_report, rss_r, out_report = _run_child(
                    report, self.env, log, CHILD_TIMEOUT_S)
                record.rss_kb = max(rss_g, rss_r)
            for command, rc, out in (("generate", rc_generate, out_generate),
                                     ("report", rc_report, out_report)):
                if rc != 0:
                    record.problems.append(f"{command} exited {rc}: {out[-300:].strip()}")
            if rc_generate == 0:
                check_trace_file(record, trace, self.length)
            if rc_report == 0:
                check_report(record, outdir, self.log2n, self.hurst, self.tolerance)
            if tracer is not None:
                self._check_readback(record, tracer)
        finally:
            for path in (trace, trace + ".meta.json", log):
                if os.path.exists(path):
                    os.remove(path)
            shutil.rmtree(outdir, ignore_errors=True)
        return record

    @staticmethod
    def _check_readback(record, tracer):
        written = tracer.last.get("synth.generate_fgn")
        read = tracer.last.get("trace_io.read_trace")
        if written is None or read is None:
            record.problems.append("readback: generate or read_trace was not traced")
        elif not np.array_equal(written.samples, read.samples):
            record.problems.append("readback: report read a trace that differs from the "
                                   "generated samples")


def make(name: str, seed: int, log2n: int, workdir=None, env=None, inprocess=False):
    """The workload object for one run: all input preparation happens here.

    ``inprocess`` makes the CLI workload call ``scalefit.cli.main``
    instead of starting child processes, as the traced run does.
    """
    if name == "cli_fgn_2p17":
        return CliWorkload(name, seed, log2n, workdir, env, inprocess)
    if name in LOG2_SIZE:
        return LibraryWorkload(name, seed, log2n)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(LOG2_SIZE)}")

