"""Trace and result persistence in diff-friendly CSV and JSON.

This module writes every file scalefit emits: traces, analysis results,
and the report bundle (REPORT_FILES plus manifest.json). All text goes
through one writer (ASCII, "\n" line ends) and all JSON through one
JSON writer (indent 2, sorted keys, trailing newline).

A trace is stored as a two-column CSV ("index,value") with a JSON
sidecar at <path>.meta.json carrying the generation metadata
(synth.META_FIELDS) and the declared length. Samples are serialized
with 17 significant digits, so write -> read is bit-exact for 64-bit
floats. Data files never contain timestamps; the only timestamp lives
in the sidecar's "created" field.

read_trace first parses the rows with np.loadtxt and keeps the result
only for a well-formed file: ASCII with "\n" line ends, the exact
header line, one row per line, indices exactly 1..n, every value
finite. Any other file is read again by the line parser,
which alone decides what an odd file means (a blank line counts toward
the row index, so only trailing ones are allowed) and alone raises the
path:line: errors, so both routes give the same samples or error.
"""
from __future__ import annotations

import io
import json
import os
import warnings

import numpy as np

from .cumulants import CumulantTable
from .scaling import HurstCurve, LocalityCurve
from .synth import META_FIELDS, Trace, trace_meta
from .wavelet import LogscaleDiagram

FORMAT_VERSION = "scalefit-trace/1"
REPORT_FORMAT = "scalefit-report/1"
REPORT_FILES = (
    "cumulant_table.csv",
    "hurst_spectrum.csv",
    "locality_cumulant.csv",
    "locality_wavelet.csv",
    "logscale_diagram.csv",
    "knees.csv",
)


class TraceFormatError(ValueError):
    """A trace file or sidecar failed to parse or is inconsistent."""


def sidecar_path(path) -> str:
    return f"{path}.meta.json"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_text(path, lines) -> None:
    """Write lines (any iterable of str) as ASCII, each ended by "\n"."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, obj) -> None:
    _write_text(path, [json.dumps(obj, indent=2, sort_keys=True)])


def write_trace(trace: Trace, path) -> None:
    """Write samples as CSV rows "i,value" (1-based) plus a JSON sidecar."""
    n = trace.samples.size
    _write_text(path, ["index,value", *map("{},{:.17g}".format, range(1, n + 1),
                                           trace.samples.tolist())])
    _write_json(sidecar_path(path), {"format": FORMAT_VERSION, "length": int(n),
                                     **trace_meta(*map(trace.meta.get, META_FIELDS))})


def read_trace(path) -> Trace:
    """Load a trace written by write_trace.

    A missing sidecar degrades to empty metadata with a warning; a
    present but inconsistent sidecar (unknown format version, length
    mismatch) is an error.
    """
    samples = _read_samples(path)
    if samples is None:
        samples = _parse_samples(path)

    meta = {}
    spath = sidecar_path(path)
    if not os.path.exists(spath):
        warnings.warn(f"sidecar {spath} missing; trace loaded with empty metadata")
    else:
        with open(spath, "r", encoding="ascii") as fh:
            try:
                sidecar = json.load(fh)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{spath}: invalid JSON: {exc}") from exc
        version = sidecar.get("format")
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"{spath}: unknown format version {version!r} (expected {FORMAT_VERSION!r})"
            )
        declared = sidecar.get("length")
        if declared != len(samples):
            raise TraceFormatError(
                f"{spath}: declared length {declared} does not match "
                f"{len(samples)} samples in {path}"
            )
        meta = trace_meta(*map(sidecar.get, META_FIELDS))
    return Trace(samples, meta)


_ROW = np.dtype([("i", np.int64), ("v", np.float64)])


def _read_samples(path):
    """Samples of a well-formed trace file via np.loadtxt, or None when
    the file is anything else: the line parser then reads it again."""
    with open(path, "rb") as fh:
        data = fh.read()
    # "\r" is a line break in the line parser's text mode, not here
    if not (data.startswith(b"index,value\n") and data.isascii()) or b"\r" in data:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. loadtxt's warning for a file without rows
            rows = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, dtype=_ROW,
                              skiprows=1, ndmin=1)
    except (ValueError, Warning):
        return None
    # loadtxt skips blank lines, which the line parser counts toward the index
    lines = data.count(b"\n") + (not data.endswith(b"\n")) - 1
    if (lines != rows.size or not np.array_equal(rows["i"], np.arange(1, rows.size + 1))
            or not np.isfinite(rows["v"]).all()):
        return None
    return rows["v"].copy()


def _parse_samples(path) -> np.ndarray:
    """The line parser: every row checked in order, errors cite path:line."""
    samples = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "index,value":
            raise TraceFormatError(f"{path}:1: expected header 'index,value', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise TraceFormatError(f"{path}:{lineno}: expected 2 fields, got {len(fields)}")
            try:
                index = int(fields[0])
                value = float(fields[1])
            except ValueError as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
            if index != lineno - 1:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected index {lineno - 1}, got {index}"
                )
            if not np.isfinite(value):
                raise TraceFormatError(f"{path}:{lineno}: non-finite sample {fields[1]!r}")
            samples.append(value)
    if not samples:
        raise TraceFormatError(f"{path}: trace contains no samples")
    return np.array(samples)


def write_curve(obj, path) -> None:
    """Write an analysis result as plot-ready CSV with a typed header.

    LocalityCurve -> "octave,hurst"; LogscaleDiagram ->
    "octave,log2_energy,count" (zero energies serialized as nan);
    CumulantTable -> "order,scale,log2_abs_cumulant,usable";
    HurstCurve -> "order,hurst,r_squared".
    """
    lines = []
    if isinstance(obj, LocalityCurve):
        lines.append("octave,hurst")
        for center, hurst in obj.points:
            lines.append(f"{_fmt(center)},{_fmt(hurst)}")
    elif isinstance(obj, LogscaleDiagram):
        lines.append("octave,log2_energy,count")
        for j in obj.octaves:
            mu = obj.energy[j]
            log2_mu = _fmt(np.log2(mu)) if mu > 0.0 else "nan"
            lines.append(f"{j},{log2_mu},{obj.counts[j]}")
    elif isinstance(obj, CumulantTable):
        lines.append("order,scale,log2_abs_cumulant,usable")
        for m in obj.orders:
            for n in obj.scales:
                value = obj.values[(m, n)]
                log2_abs = _fmt(np.log2(abs(value))) if value != 0.0 else "nan"
                usable = "true" if obj.usable[(m, n)] else "false"
                lines.append(f"{m},{n},{log2_abs},{usable}")
    elif isinstance(obj, HurstCurve):
        lines.append("order,hurst,r_squared")
        for m, fit in sorted(obj.entries.items()):
            lines.append(f"{m},{_fmt(fit.hurst())},{_fmt(fit.r_squared)}")
    else:
        raise TypeError(f"no CSV serialization for {type(obj).__name__}")
    _write_text(path, lines)


def write_report(outdir, source, table, spectrum, diagram, curves, knees, settings,
                 omitted_knees) -> None:
    """Write the report bundle into outdir, created if missing:
    REPORT_FILES and manifest.json.

    curves and knees map each method, "cumulant" then "wavelet", to its
    LocalityCurve and its KneePoint; knees.csv flags a knee significant
    by KneePoint.significant(settings["knee_threshold"]). A method
    without a knee has no knees.csv row; omitted_knees maps it to the
    reason. The manifest records source's file name, settings, the
    depth of the table actually built and, when there are any, the
    omitted knees.
    """
    os.makedirs(outdir, exist_ok=True)
    # every file of REPORT_FILES before knees.csv, in order
    results = (table, spectrum, curves["cumulant"], curves["wavelet"], diagram)
    for name, result in zip(REPORT_FILES, results):
        write_curve(result, os.path.join(outdir, name))
    threshold = settings["knee_threshold"]
    _write_text(os.path.join(outdir, "knees.csv"), [
        "method,octave,left_slope,right_slope,sse_reduction,significant",
        *(f"{method},{_fmt(k.octave)},{_fmt(k.left_slope)},{_fmt(k.right_slope)},"
          f"{_fmt(k.sse_reduction)},{'true' if k.significant(threshold) else 'false'}"
          for method, k in knees.items()),
    ])
    manifest = {
        "format": REPORT_FORMAT,
        "input": os.path.basename(source),
        "parameters": {"max_order": table.orders[-1], **settings},
        "files": list(REPORT_FILES),
    }
    if omitted_knees:
        manifest["omitted_knees"] = omitted_knees
    _write_json(os.path.join(outdir, "manifest.json"), manifest)
