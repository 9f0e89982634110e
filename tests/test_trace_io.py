import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefit.cumulants import CumulantTable
from scalefit.scaling import HurstCurve, LocalityCurve, ScalingFit
from scalefit.synth import FgnSpec, Trace, generate_fgn
from scalefit.trace_io import (
    TraceFormatError,
    _parse_samples,
    _read_samples,
    read_trace,
    sidecar_path,
    write_curve,
    write_trace,
)
from scalefit.wavelet import LogscaleDiagram


def make_trace(samples, **meta):
    base = {"model": "fgn", "params": {"hurst": 0.7}, "seed": 1, "created": "t0"}
    base.update(meta)
    return Trace(np.asarray(samples, dtype=float), base)


class TestWriteTrace:
    def test_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(make_trace([1.5, -2.0]), path)
        assert path.read_text() == "index,value\n1,1.5\n2,-2\n"

    def test_sidecar_written(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(make_trace([1.0, 2.0]), path)
        sidecar = json.loads(Path(sidecar_path(path)).read_text())
        assert sidecar["format"] == "scalefit-trace/1"
        assert sidecar["length"] == 2
        assert sidecar["model"] == "fgn"

    def test_unwritable_path_names_path(self, tmp_path):
        path = tmp_path / "missing_dir" / "t.csv"
        with pytest.raises(OSError) as excinfo:
            write_trace(make_trace([1.0]), path)
        assert "missing_dir" in str(excinfo.value)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        trace = make_trace([0.1, 0.2, 0.3])
        write_trace(trace, a)
        write_trace(trace, b)
        assert a.read_bytes() == b.read_bytes()
        assert Path(sidecar_path(a)).read_bytes() == Path(sidecar_path(b)).read_bytes()


class TestRoundTrip:
    def test_generated_trace_roundtrips_bitexact(self, tmp_path):
        trace = generate_fgn(FgnSpec(0.8, 2**10, 1.0, 13))
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert np.array_equal(loaded.samples, trace.samples)
        assert loaded.meta["model"] == "fgn"
        assert loaded.meta["seed"] == 13
        assert loaded.meta["params"] == trace.meta["params"]

    @settings(max_examples=50)
    @given(values=st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=64))
    def test_arbitrary_floats_roundtrip(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("io") / "t.csv"
        trace = make_trace(values)
        write_trace(trace, path)
        assert np.array_equal(read_trace(path).samples, trace.samples)


# (file bytes, whether the loadtxt fast path may keep its own result)
FAST_PATH_CASES = {
    "well_formed": (b"index,value\n1,1.5\n2,-2.5e-300\n3,0\n", True),
    "no_final_newline": (b"index,value\n1,1.5\n2,2.5", True),
    "blank_line": (b"index,value\n1,1.5\n\n2,2.5\n", False),
    "trailing_blank_lines": (b"index,value\n1,1.5\n2,2.5\n\n\n", False),
    "whitespace_only_line": (b"index,value\n1,1.5\n  \t\n2,2.5\n", False),
    "trailing_whitespace_line": (b"index,value\n1,1.5\n   \n", False),
    "hash_line": (b"index,value\n# comment\n1,1.5\n", False),
    "hash_after_value": (b"index,value\n1,1.5 # comment\n", False),
    "float_index": (b"index,value\n1.0,1.5\n", False),
    "index_out_of_order": (b"index,value\n2,1.5\n1,2.5\n", False),
    "index_from_zero": (b"index,value\n0,1.5\n1,2.5\n", False),
    "trailing_comma": (b"index,value\n1,1.5,\n", False),
    "empty_value": (b"index,value\n1,\n", False),
    "nan": (b"index,value\n1,1.5\n2,nan\n", False),
    "inf": (b"index,value\n1,-inf\n", False),
    "overflow_1e500": (b"index,value\n1,1.5\n2,1e500\n", False),
    "non_ascii_byte": (b"index,value\n1,1.5\n2,2.5\xc3\xa9\n", False),
    "header_only": (b"index,value\n", False),
    "header_with_spaces": (b"index,value  \n1,1.5\n", False),
    "crlf_line_ends": (b"index,value\r\n1,1.5\r\n2,2.5\r\n", False),
    "lone_cr_blank_line": (b"index,value\n1,1.5\r\n\r2,2.5\n", False),
    "signed_padded_fields": (b"index,value\n+1, 1.5 \n 2 ,-2.5\n", True),
}


def _outcome(read, path):
    """Samples as raw bytes, or the exception type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no sidecar
            samples = read(path)
    except (TraceFormatError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)
    return getattr(samples, "samples", samples).tobytes()


class TestReadFastPath:
    """read_trace's np.loadtxt route must change nothing the line parser
    decides: same samples, or the same error, for every file."""

    @pytest.mark.parametrize("name", sorted(FAST_PATH_CASES))
    def test_same_outcome_as_line_parser(self, tmp_path, name):
        content, fast = FAST_PATH_CASES[name]
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        assert _outcome(read_trace, path) == _outcome(_parse_samples, path)
        assert (_read_samples(path) is not None) == fast

    def test_generated_2p17_roundtrip_bitexact(self, tmp_path):
        trace = generate_fgn(FgnSpec(0.8, 2**17, 1.0, 5))
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        # the bytes are those of the row-by-row f-string writer
        rows = "".join(f"{i},{v:.17g}\n" for i, v in enumerate(trace.samples, start=1))
        assert path.read_text() == "index,value\n" + rows
        assert _read_samples(path) is not None
        assert read_trace(path).samples.tobytes() == trace.samples.tobytes()


class TestReadErrors:
    def test_non_numeric_cell_cites_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,value\n1,1.5\n2,oops\n")
        with pytest.raises(TraceFormatError, match=r":3:"):
            read_trace(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(TraceFormatError, match=r":1:"):
            read_trace(path)

    def test_missing_sidecar_warns_with_empty_meta(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("index,value\n1,1.5\n")
        with pytest.warns(UserWarning, match="sidecar"):
            trace = read_trace(path)
        assert trace.meta == {}
        assert np.array_equal(trace.samples, [1.5])

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(make_trace([1.0, 2.0]), path)
        meta = json.loads(Path(sidecar_path(path)).read_text())
        meta["length"] = 5
        with open(sidecar_path(path), "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(TraceFormatError, match="length"):
            read_trace(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(make_trace([1.0, 2.0]), path)
        meta = json.loads(Path(sidecar_path(path)).read_text())
        meta["format"] = "scalefit-trace/99"
        with open(sidecar_path(path), "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(TraceFormatError, match="version"):
            read_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_trace(tmp_path / "nope.csv")


class TestWriteCurve:
    def test_locality_curve(self, tmp_path):
        curve = LocalityCurve(points=((1.5, 0.8), (2.5, 0.79)), window_width=4)
        path = tmp_path / "c.csv"
        write_curve(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "octave,hurst"
        assert len(lines) == 3

    def test_cumulant_table_flags(self, tmp_path):
        table = CumulantTable(
            orders=(2,),
            scales=(1, 2),
            values={(2, 1): 4.0, (2, 2): 0.0},
            block_counts={1: 64, 2: 32},
            usable={(2, 1): True, (2, 2): False},
        )
        path = tmp_path / "t.csv"
        write_curve(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "order,scale,log2_abs_cumulant,usable"
        assert lines[1] == "2,1,2,true"
        assert lines[2] == "2,2,nan,false"

    def test_empty_curve_header_only(self, tmp_path):
        curve = LocalityCurve(points=(), window_width=4)
        path = tmp_path / "c.csv"
        write_curve(curve, path)
        assert path.read_text() == "octave,hurst\n"

    def test_logscale_diagram(self, tmp_path):
        diagram = LogscaleDiagram(
            octaves=(1, 2), energy={1: 2.0, 2: 0.0}, counts={1: 8, 2: 4}
        )
        path = tmp_path / "d.csv"
        write_curve(diagram, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "octave,log2_energy,count"
        assert lines[1] == "1,1,8"
        assert lines[2] == "2,nan,4"

    def test_hurst_curve(self, tmp_path):
        curve = HurstCurve(entries={2: ScalingFit(1.6, 0.0, 0.99, 9, (0, 8), 0.8),
                                    4: ScalingFit(3.0, 0.0, 0.9, 9, (0, 8), 0.75)})
        path = tmp_path / "h.csv"
        write_curve(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "order,hurst,r_squared"
        assert lines[1].startswith("2,0.8")

    def test_unsupported_type(self, tmp_path):
        with pytest.raises(TypeError):
            write_curve(object(), tmp_path / "x.csv")
