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

write_trace formats the rows 4096 at a time. A batch whose every
|value| lies in [1e-6, 1e16) (exact decimal bounds: the double nearest
1e-6 lies below them) is formatted by numpy: each value's 17 digits
come from an exact double-double product with a power of ten (Dekker),
rounded half to even as "%.17g" rounds, and every row is laid out in
fixed columns that a keep-mask compresses to the "%g" text. Any other
batch (a zero, a subnormal, a value of 1e16 or more or below 1e-6)
keeps the Python "%d,%.17g" formatting, the reference the tests hold
the numpy rows to, byte for byte.

read_trace first parses the rows with np.loadtxt and keeps the result
only for a well-formed file: ASCII with "\n" line ends, the exact
header line, one row per line, indices exactly 1..n, every value
finite. Any other file is read again by the line parser,
which alone decides what an odd file means (a blank line counts toward
the row index, so only trailing ones are allowed) and alone raises the
path:line: errors, so both routes give the same samples or error.
"""
from __future__ import annotations

import functools
import io
import json
import os
import warnings
from itertools import chain

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


# trace rows formatted per batch: a trace's rows are never all held at once
_WRITE_BATCH_LINES = 4096


def _write_bytes(path, chunks) -> None:
    """Write chunks (any iterable of bytes-like objects, consumed lazily)."""
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _write_text(path, lines) -> None:
    """Write lines (any iterable of str, consumed lazily) as ASCII, each
    ended by "\n"."""
    _write_bytes(path, (f"{line}\n".encode("ascii") for line in lines))


def _rows_percent(values: np.ndarray, start: int) -> bytes:
    """The CSV rows "i,value\n" of values, indexed from start + 1, by one
    % formatting of the interleaved indices and values: the reference
    for _rows_17g, and the writer of every batch it does not take."""
    cells = [None] * (2 * values.size)
    cells[0::2] = range(start + 1, start + 1 + values.size)
    cells[1::2] = values.tolist()
    return ("%d,%.17g\n" * values.size % tuple(cells)).encode("ascii")


def _split(a):
    """a as ah + al, each with at most 26 significant bits (Veltkamp)."""
    c = a * 134217729.0  # 2**27 + 1
    ah = c - (c - a)
    return ah, a - ah


# 10^k is exact in binary64 for k <= 22, so for 1e-6 <= |x| < 1e16
# x * 10^(16 - E) is an exact Dekker product
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a, k):
    """a * 10^k exactly, as hi + lo with hi = fl(a * 10^k): Dekker's
    two-product of a and the exact power 10^k, k <= 22."""
    ah, al = _split(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _digits17(magnitudes):
    """(D, E) for magnitudes in [1e-6, 1e16): D = the 17 significant
    digits as an int64, 10^16 <= D < 10^17, E = the decimal exponent,
    so that D * 10^(E - 16) is each magnitude rounded half to even, the
    digits and exponent of "%.17e".

    The 17-digit rounding never carries D to 10^17 here: for every
    power of ten from 1e-6 to 1e16 the largest double below it keeps a
    17-digit value below it (tests pin this), so E is final."""
    e = np.floor(np.log10(magnitudes)).astype(np.intp)
    np.clip(e, -6, 15, out=e)
    hi, lo = _times_pow10(magnitudes, 16 - e)
    # log10 can round across a power of ten: the exact hi + lo decides E
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    wrong = below | above
    if wrong.any():
        e += above
        e -= below
        hi[wrong], lo[wrong] = _times_pow10(magnitudes[wrong], 16 - e[wrong])
    # hi >= 2^53 is an even integer, so rounding lo half to even rounds
    # the exact hi + lo half to even
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


# A fast-path row is 8 * wi + 48 bytes in uint64 words: wi words of
# index digits, right-aligned, then the 48-byte value part:
#   0 ","  1 "-"  2-6 "0.000"  7 pad  8+2j digit j and 9+2j a "." (j < 16)
#   40 digit 16  41 pad  42-45 "e-0X"  46 "\n"  47 pad
# A 0/1 keep byte per byte selects the row's "%d,%.17g\n" text. The
# words and tables are built from bytes, so they are native-endian.
_VALUE_WORDS = 6
_COMMA_WORD = np.frombuffer(b",-0.000\0", np.uint64)[0]
_TAIL_WORD = np.frombuffer(b"\0\0e-0\0\n\0", np.uint64)[0]


@functools.cache
def _row_tables():
    """The read-only lookup tables of _rows_17g, built at its first call,
    so that an import or a command that writes no trace builds none:
    - plain[g], dotted[g]: the 4 digits of g < 10^4, thousands first, as
      ASCII in a uint32, and each followed by a "." in a uint64;
    - last_nonzero[g]: the position (0-3) of g's last nonzero digit, -16
      for g = 0, below any position in a 17-digit number;
    - value_keep[L * 22 + E + 6]: the keep words of the value part, for L
      the position of D's last nonzero digit and E in [-6, 15]. "%g"
      prints fixed notation for -4 <= E, with "0." and -E - 1 zeros
      before the digits when E < 0; it prints the digits up to the last
      nonzero one and, in fixed notation, up to the units digit, and a
      "." only where a nonzero digit follows it;
    - index_keep[n]: the keep words of an n-digit index right-aligned in
      2 words."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, 10000)
    ascii_digits = np.ascontiguousarray(digits.T) + np.uint8(ord("0"))
    plain = ascii_digits.view(np.uint32).ravel()
    dotted = (np.stack([ascii_digits, np.full_like(ascii_digits, ord("."))], 2)
              .reshape(10000, 8).view(np.uint64).ravel())
    last_nonzero = np.max((digits != 0) * np.arange(4, dtype=np.int8)[:, None], axis=0)
    last_nonzero = last_nonzero.astype(np.intp)
    last_nonzero[0] = -16

    last = np.arange(17)[:, None, None]
    e = np.arange(-6, 16)[None, :, None]
    b = np.arange(8 * _VALUE_WORDS)
    j = (b - 8) // 2
    fixed = e >= -4
    lead = np.where(fixed & (e < 0), 1 - e, 0)
    point = np.where(fixed, e, 0)
    value_keep = ((b == 0) | (b == 46) | ((2 <= b) & (b < 2 + lead))
                  | ((8 <= b) & (b <= 40) & (b % 2 == 0) & (j <= np.maximum(last, e)))
                  | ((8 < b) & (b < 40) & (b % 2 == 1) & (j == point) & (point < last))
                  | ((42 <= b) & (b < 46) & ~fixed))
    value_keep = value_keep.astype(np.uint8).view(np.uint64).reshape(17 * 22, _VALUE_WORDS)
    index_keep = (np.arange(16) >= 16 - np.arange(17)[:, None]).astype(np.uint8).view(np.uint64)
    tables = plain, dotted, last_nonzero, value_keep, index_keep
    for table in tables:
        table.flags.writeable = False
    return tables


def _rows_17g(values: np.ndarray, magnitudes: np.ndarray, start: int) -> np.ndarray:
    """The bytes of _rows_percent(values, start), for values whose
    magnitudes all lie in [1e-6, 1e16), as a uint8 array."""
    plain, dotted, last_nonzero, value_keep, index_keep = _row_tables()
    n = values.size
    digits, e = _digits17(magnitudes)
    # D's digits: groups 0-3 hold digits 0-15, four to a group, then d16
    head = digits // 10
    d16 = digits - head * 10
    groups = np.empty((4, n), np.int64)
    high = head // 100000000
    for g, half in ((0, high), (2, head - high * 100000000)):
        np.floor_divide(half, 10000, out=groups[g])
        np.subtract(half, groups[g] * 10000, out=groups[g + 1])
    last = np.maximum(
        np.maximum(np.take(last_nonzero, groups[0]), np.take(last_nonzero, groups[1]) + 4),
        np.maximum(np.take(last_nonzero, groups[2]) + 8, np.take(last_nonzero, groups[3]) + 12))
    last[d16 != 0] = 16

    index = np.arange(start + 1, start + n + 1)
    wi = 1 if start + n < 10 ** 8 else 2
    words = np.empty((n, wi + _VALUE_WORDS), np.uint64)
    keep = np.empty_like(words)
    # an index has len(str(i)) digits: one more at each power of ten
    keep[:, :wi] = index_keep[len(str(start + 1)), 2 - wi:]
    for k in range(len(str(start + 1)), len(str(start + n))):
        keep[10 ** k - start - 1:, :wi] = index_keep[k + 1, 2 - wi:]
    for w in range(2 * wi - 1, -1, -1):  # 4 index digits per uint32
        rest = index // 10000
        words.view(np.uint32)[:, w] = np.take(plain, index - rest * 10000)
        index = rest
    words[:, wi] = _COMMA_WORD
    words[:, wi + 1:wi + 5] = np.take(dotted, groups).T
    words[:, wi + 5] = _TAIL_WORD
    text = words.view(np.uint8)
    text[:, 8 * wi + 40] = d16 + ord("0")
    text[:, 8 * wi + 45] = ord("0") - e  # the exponent's digit, for E = -5, -6

    keep[:, wi:] = np.take(value_keep, last * 22 + e + 6, axis=0)
    keep.view(np.uint8)[:, 8 * wi + 1] = values < 0
    return np.compress(keep.view(bool).ravel(), text.ravel())


def _trace_rows(samples: np.ndarray):
    """The CSV rows "i,value\n" (1-based) of samples, _WRITE_BATCH_LINES
    rows to a chunk: by _rows_17g when every |value| of the batch lies in
    [1e-6, 1e16), else by _rows_percent."""
    for start in range(0, samples.size, _WRITE_BATCH_LINES):
        values = samples[start:start + _WRITE_BATCH_LINES]
        magnitudes = np.abs(values)
        # the double 1e-6 lies below 10^-6: "> 1e-6" admits exactly the
        # doubles from 10^-6 up, whose 10^(16 - E) is exact
        if magnitudes.min() > 1e-6 and magnitudes.max() < 1e16:
            yield _rows_17g(values, magnitudes, start)
        else:
            yield _rows_percent(values, start)


def _write_json(path, obj) -> None:
    _write_text(path, [json.dumps(obj, indent=2, sort_keys=True)])


def write_trace(trace: Trace, path) -> None:
    """Write samples as CSV rows "i,value" (1-based) plus a JSON sidecar."""
    n = trace.samples.size
    _write_bytes(path, chain([b"index,value\n"], _trace_rows(trace.samples)))
    _write_json(sidecar_path(path), {"format": FORMAT_VERSION, "length": int(n),
                                     **trace_meta(*map(trace.meta.get, META_FIELDS))})


_JSON_TYPE = {list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def read_trace(path) -> Trace:
    """Load a trace written by write_trace.

    A missing sidecar degrades to empty metadata with a warning; a
    present but inconsistent sidecar (not a JSON object, unknown format
    version, length mismatch) is an error.
    """
    samples = _read_samples(path)
    if samples is None:
        samples = _parse_samples(path)
    spath = sidecar_path(path)
    if not os.path.exists(spath):
        warnings.warn(f"sidecar {spath} missing; trace loaded with empty metadata")
        return Trace(samples, {})
    try:
        with open(spath, "r", encoding="ascii") as fh:
            sidecar = json.load(fh)
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{spath}: non-ASCII byte 0x{exc.object[exc.start]:02x} "
                               f"at offset {exc.start}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested past the limit
        raise TraceFormatError(f"{spath}: invalid JSON: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise TraceFormatError(f"{spath}: expected a JSON object, got {_JSON_TYPE[type(sidecar)]}")
    version = sidecar.get("format")
    if version != FORMAT_VERSION:
        raise TraceFormatError(f"{spath}: unknown format version {version!r} "
                               f"(expected {FORMAT_VERSION!r})")
    declared = sidecar.get("length")
    # True and 1.0 equal 1: only a JSON integer declares a length
    if type(declared) is not int or declared != len(samples):
        raise TraceFormatError(f"{spath}: declared length {declared!r} does not match "
                               f"{len(samples)} samples in {path}")
    return Trace(samples, trace_meta(*map(sidecar.get, META_FIELDS)))


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


def _ascii_line(path, lineno, line: str) -> str:
    """line, unless it holds a non-ASCII byte: a path:line: error naming it."""
    if line.isascii():
        return line
    byte = ord(next(c for c in line if not c.isascii())) - 0xDC00
    raise TraceFormatError(f"{path}:{lineno}: non-ASCII byte 0x{byte:02x}")


def _parse_samples(path) -> np.ndarray:
    """The line parser: every row checked in order, errors cite path:line."""
    samples = []
    # a byte past ASCII reads as a lone surrogate, refused by _ascii_line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        header = _ascii_line(path, 1, fh.readline()).strip()
        if header != "index,value":
            raise TraceFormatError(f"{path}:1: expected header 'index,value', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = _ascii_line(path, lineno, line).strip()
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
