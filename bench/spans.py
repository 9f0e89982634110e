"""Span tracing of scalefit's public functions, applied from outside.

A Tracer replaces each function in WRAPPED with a wrapper that records
one span per call: name, layer, start, end, parent span, wall time and
process CPU time. The replacement is made under every name a caller
can look the function up by (the defining module, the package
namespace, and modules that imported the name, such as
``scalefit.cli.build_pyramid`` or ``scalefit.synth.standard_normals``),
so calls made inside the package are traced too. Nothing under src/ is
edited; leaving the ``with`` block restores the originals.

Per-sample functions (``fgn_autocovariance`` runs once per lag) and
per-scale helpers are deliberately not wrapped: timing them would time
the wrapper. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

LAYERS = ("cli", "trace_io", "synth", "rng", "aggregate", "cumulants", "wavelet", "scaling")

# (layer == module name, public function) pairs reached by the workloads.
WRAPPED = (
    ("rng", "standard_normals"),
    ("synth", "generate_fgn"),
    ("synth", "generate_multifractal"),
    ("trace_io", "write_trace"),
    ("trace_io", "read_trace"),
    ("trace_io", "write_curve"),
    ("aggregate", "build_pyramid"),
    ("cumulants", "cumulant_scaling_table"),
    ("wavelet", "logscale_diagram"),
    ("wavelet", "wavelet_hurst"),
    ("wavelet", "wavelet_locality_curve"),
    ("scaling", "fit_loglog"),
    ("scaling", "hurst_spectrum"),
    ("scaling", "locality_curve"),
    ("scaling", "detect_knee"),
    ("cli", "main"),
)

# Functions reported by inclusive wall time, as "<name>_s".
INCLUSIVE = (
    "rng.standard_normals", "synth.generate_fgn", "trace_io.write_trace",
    "trace_io.read_trace", "trace_io.write_curve", "aggregate.build_pyramid",
    "cumulants.cumulant_scaling_table", "wavelet.logscale_diagram", "wavelet.wavelet_hurst",
    "wavelet.wavelet_locality_curve", "scaling.fit_loglog", "scaling.hurst_spectrum",
    "scaling.locality_curve", "scaling.detect_knee",
)
# Work counts taken at span boundaries; bytes are computed from array
# and file sizes at the boundary (input plus output), not measured.
COUNTS = (
    "synth.samples", "synth.bytes_computed", "trace_io.bytes_written", "trace_io.bytes_read",
    "aggregate.scales", "aggregate.samples_summed", "aggregate.bytes_computed",
    "cumulants.cells", "cumulants.bytes_computed", "wavelet.coefficients",
    "wavelet.bytes_computed",
)
FLOAT_BYTES = 8


@dataclass
class Span:
    name: str       # "layer.function"
    layer: str
    op: int         # index of the benchmark operation (one trace) it belongs to
    parent: int     # index of the enclosing span, -1 at the top
    start: float    # perf_counter seconds
    end: float
    wall: float
    cpu: float      # process CPU seconds over the span
    error: str      # exception type name, "" on success


def _file_bytes(path) -> int:
    total = 0
    for p in (os.fspath(path), os.fspath(path) + ".meta.json"):
        if os.path.exists(p):
            total += os.path.getsize(p)
    return total


def _samples(obj):
    return getattr(obj, "samples", obj)


class Tracer:
    """Records spans and work counts while active (``with tracer:``)."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.last: dict = {}   # most recent result per span name
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    # -- patching -------------------------------------------------------
    def __enter__(self):
        # importlib, not attribute access: ``scalefit.aggregate`` is the
        # function of that name, which shadows the submodule
        owners = {layer: importlib.import_module(f"scalefit.{layer}") for layer in LAYERS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "scalefit" or name.startswith("scalefit.")) and m is not None]
        for layer, func in WRAPPED:
            original = getattr(owners[layer], func)
            wrapper = self._wrap(layer, func, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, layer, func, fn):
        name = f"{layer}.{func}"
        count = getattr(self, f"_count_{layer}_{func}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, layer, self.op, parent, 0.0, 0.0, 0.0, 0.0, "")
            self._stack.append(len(self.spans))
            self.spans.append(span)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                self._stack.pop()
                span.start, span.end, span.wall, span.cpu = t0, t1, t1 - t0, c1 - c0
            self.last[name] = result
            if count is not None:
                count(parent, args, result)
            return result

        return wrapper

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- work counts taken at the span boundary --------------------------
    def _count_synth(self, parent, result):
        if parent < 0 or self.spans[parent].layer != "synth":
            n = len(_samples(result))
            self._add("synth.samples", n)
            self._add("synth.bytes_computed", n * FLOAT_BYTES)

    def _count_synth_generate_fgn(self, parent, args, result):
        self._count_synth(parent, result)

    def _count_synth_generate_multifractal(self, parent, args, result):
        self._count_synth(parent, result)

    def _count_trace_io_write_trace(self, parent, args, result):
        self._add("trace_io.bytes_written", _file_bytes(args[1]))

    def _count_trace_io_write_curve(self, parent, args, result):
        self._add("trace_io.bytes_written", os.path.getsize(args[1]))

    def _count_trace_io_read_trace(self, parent, args, result):
        self._add("trace_io.bytes_read", _file_bytes(args[0]))

    def _count_aggregate_build_pyramid(self, parent, args, result):
        length = result.source_length
        blocks = sum(length // n for n in result.scales)
        summed = sum((length // n) * n for n in result.scales)
        self._add("aggregate.scales", len(result.scales))
        self._add("aggregate.samples_summed", summed)
        self._add("aggregate.bytes_computed", (summed + blocks) * FLOAT_BYTES)

    def _count_cumulants_cumulant_scaling_table(self, parent, args, result):
        self._add("cumulants.cells", len(result.values))
        self._add("cumulants.usable_cells", sum(result.usable.values()))
        read = sum(result.block_counts.values())
        self._add("cumulants.bytes_computed", (read + len(result.values)) * FLOAT_BYTES)

    def _count_wavelet_logscale_diagram(self, parent, args, result):
        coefficients = sum(result.counts.values())
        self._add("wavelet.coefficients", coefficients)
        self._add("wavelet.bytes_computed",
                  (len(_samples(args[0])) + coefficients) * FLOAT_BYTES)

    # -- reduction ------------------------------------------------------
    def layer_metrics(self, traces: int) -> dict:
        """Per-trace means of the per-layer metrics, plus two ratios.

        ``layer.function_s`` is the inclusive wall time of that
        function's spans; ``..._self_s`` and ``layer.self_s`` leave out
        the time child spans cover. ``layer.wait_s`` is the layer's self
        wall time minus its self process CPU time.
        """
        spans = self.spans
        child_wall = [0.0] * len(spans)
        child_cpu = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_wall[s.parent] += s.wall
                child_cpu[s.parent] += s.cpu
        inclusive, own, layer_self, layer_wait = {}, {}, {}, {}
        calls, errors = {}, {}
        for i, s in enumerate(spans):
            own_wall = s.wall - child_wall[i]
            inclusive[s.name] = inclusive.get(s.name, 0.0) + s.wall
            own[s.name] = own.get(s.name, 0.0) + own_wall
            layer_self[s.layer] = layer_self.get(s.layer, 0.0) + own_wall
            layer_wait[s.layer] = (layer_wait.get(s.layer, 0.0)
                                   + own_wall - (s.cpu - child_cpu[i]))
            calls[s.name] = calls.get(s.name, 0) + 1
            errors[s.name] = errors.get(s.name, 0) + bool(s.error)

        per = 1.0 / max(traces, 1)
        out = {}
        for layer in LAYERS:
            key = "cli.main_self_s" if layer == "cli" else f"{layer}.self_s"
            out[key] = layer_self.get(layer, 0.0) * per
            out[f"{layer}.wait_s"] = max(0.0, layer_wait.get(layer, 0.0)) * per
        for name in INCLUSIVE:
            out[f"{name}_s"] = inclusive.get(name, 0.0) * per
        out["synth.generate_multifractal_self_s"] = own.get("synth.generate_multifractal", 0.0) * per
        read = [s for s in spans if s.name == "trace_io.read_trace"]
        out["trace_io.read_trace_wait_s"] = max(0.0, sum(s.wall - s.cpu for s in read)) * per
        for key in COUNTS:
            out[key] = self.counts.get(key, 0) * per
        fits = calls.get("scaling.fit_loglog", 0)
        out["scaling.fit_loglog_calls"] = fits * per
        out["scaling.insufficient_ratio"] = errors.get("scaling.fit_loglog", 0) / fits if fits else 0.0
        cells = self.counts.get("cumulants.cells", 0)
        out["cumulants.usable_ratio"] = (
            self.counts.get("cumulants.usable_cells", 0) / cells if cells else 0.0)
        out["trace.spans"] = len(spans) * per
        out["trace.attributed_s"] = sum(layer_self.values()) * per
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), separators=(",", ":")) + "\n")
