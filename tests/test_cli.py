import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import scalefit
from scalefit import scaling
from scalefit.cli import main
from scalefit.synth import FgnSpec, Trace, generate_fgn
from scalefit.trace_io import read_trace, write_trace


@pytest.fixture(autouse=True)
def fixed_clock(monkeypatch):
    monkeypatch.setenv("SCALEFIT_FIXED_CLOCK", "1")


def run(*argv):
    return main([str(a) for a in argv])


def run_expecting_exit(capsys, *argv):
    """argparse validation failures raise SystemExit(2)."""
    with pytest.raises(SystemExit) as excinfo:
        run(*argv)
    return excinfo.value.code, capsys.readouterr()


@pytest.fixture(scope="module")
def fgn_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "fgn06.csv"
    os.environ["SCALEFIT_FIXED_CLOCK"] = "1"
    assert main(["generate", "--model", "fgn", "--hurst", "0.6", "--length", "65536",
                 "--seed", "7", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def overflow_trace(tmp_path_factory):
    """Finite samples whose sum (about 4e309) passes float64's range."""
    path = tmp_path_factory.mktemp("traces") / "overflow.csv"
    fgn = generate_fgn(FgnSpec(0.8, 4096, 1.0, 3))
    write_trace(Trace(fgn.samples * 1e305 + 1e306), path)
    return path


class TestGenerate:
    def test_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run("generate", "--model", "fgn", "--hurst", "0.8", "--length", 4096,
                   "--seed", 42, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4096 + 1
        summary = capsys.readouterr().out
        assert "length=4096" in summary and "seed=42" in summary

    def test_hurst_bound_cited_exit_2(self, tmp_path, capsys):
        code, captured = run_expecting_exit(
            capsys, "generate", "--model", "fgn", "--hurst", 1.2,
            "--length", 4096, "--seed", 1, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "(0, 1)" in captured.err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("generate", "--model", "fgn", "--hurst", 0.7, "--length", 1024,
                       "--seed", 5, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == \
               (tmp_path / "b.csv.meta.json").read_bytes()

    def test_cascade_model(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("generate", "--model", "cascade", "--depth", 10, "--multiplier", 2.0,
                   "--seed", 3, "--out", out) == 0
        trace = read_trace(out)
        assert trace.samples.size == 1024
        assert trace.samples.min() >= 0.0

    def test_multifractal_length_consistency(self, tmp_path, capsys):
        code, captured = run_expecting_exit(
            capsys, "generate", "--model", "multifractal", "--hurst", 0.7,
            "--length", 1024, "--depth", 9, "--seed", 1, "--out", tmp_path / "m.csv")
        assert code == 2
        assert "2**depth" in captured.err

    def test_bad_length_exit_2(self, tmp_path, capsys):
        code, captured = run_expecting_exit(
            capsys, "generate", "--model", "fgn", "--hurst", 0.5,
            "--length", 1000, "--seed", 1, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "power of two" in captured.err


INVALID_FLAGS = [
    (["hurst", "{trace}", "--order", 0], "got 0"),
    (["report", "{trace}", "--outdir", "{out}", "--order", 7], "got 7"),
    (["cumulants", "{trace}", "--max-order", 0, "--out", "{out}"], "got 0"),
    (["hurst", "{trace}", "--max-order", 7], "got 7"),
    (["locality", "{trace}", "--window", 2], "--window must be at least 3 octaves, got 2"),
    (["locality", "{trace}", "--knee-threshold", -1], "got -1"),
    (["report", "{trace}", "--outdir", "{out}", "--knee-threshold", "nan"], "got nan"),
    (["hurst", "{trace}", "--j-lo", 5, "--j-hi", 4], "[5.0, 4.0]"),
    (["hurst", "{trace}", "--method", "wavelet", "--j-lo", "nan"], "got nan"),
    (["hurst", "{trace}", "--method", "wavelet", "--levels", 0],
     "--levels must be a positive integer, got 0"),
    (["aggregate", "{trace}", "--scale", 0, "--out", "{out}"],
     "--scale must be a positive integer, got 0"),
    (["generate", "--model", "fgn", "--hurst", 1.2, "--out", "{out}"],
     "--hurst must be in the open interval (0, 1), got 1.2"),
    (["generate", "--model", "fgn", "--length", 1000, "--out", "{out}"],
     "--length must be a power of two >= 16, got 1000"),
    (["generate", "--model", "cascade", "--depth", 1, "--out", "{out}"],
     "--depth must be an integer >= 2, got 1"),
    (["generate", "--model", "multifractal", "--length", 1024, "--depth", 9,
      "--out", "{out}"], "1024"),
    (["generate", "--model", "fgn", "--variance", "inf", "--out", "{out}"],
     "--variance must be finite and positive, got inf"),
    (["generate", "--model", "cascade", "--multiplier", "inf", "--out", "{out}"],
     "--multiplier must be finite and positive, got inf"),
    (["generate", "--model", "multifractal", "--length", 1024, "--depth", 10,
      "--mass", "inf", "--out", "{out}"], "--mass must be finite and positive, got inf"),
    (["generate", "--model", "cascade", "--mass", -1, "--out", "{out}"],
     "--mass must be finite and positive, got -1.0"),
    (["generate", "--model", "cascade", "--seed", -1, "--out", "{out}"],
     "--seed must be an unsigned 64-bit integer, got -1"),
    (["generate", "--model", "multifractal", "--length", 1024, "--depth", 10,
      "--cascade-seed", -1, "--out", "{out}"],
     "--cascade-seed must be an unsigned 64-bit integer, got -1"),
]


@pytest.mark.parametrize("argv, named", INVALID_FLAGS,
                         ids=[" ".join(str(a) for a in argv if "{" not in str(a))
                              for argv, _ in INVALID_FLAGS])
def test_invalid_flag_exit_2(fgn_trace, tmp_path, capsys, argv, named):
    """Every invalid flag is rejected before any computation, with exit 2
    and one error line that names the bad value and, where an owner's rule
    rejects it, the flag rather than the owner's parameter."""
    out = tmp_path / "out"
    code, captured = run_expecting_exit(
        capsys, *[str(a).format(trace=fgn_trace, out=out) for a in argv])
    assert code == 2
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0], captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["hurst", "{trace}", "--order", 0],
    ["locality", "{trace}", "--window", 2],
    ["aggregate", "{trace}", "--scale", 0, "--out", "{out}"],
    ["report", "no_such_trace.csv", "--outdir", "{out}"],
    ["generate", "--model", "fgn", "--length", 1000, "--out", "{out}"],
], ids=lambda argv: " ".join(str(a) for a in argv if "{" not in str(a)))
def test_owner_rule_error_names_subcommand(fgn_trace, tmp_path, capsys, argv):
    """Rules checked after parsing report like argparse's own errors: the
    subcommand's usage line and a "scalefit <cmd>: error:" prefix."""
    out = tmp_path / "out"
    code, captured = run_expecting_exit(
        capsys, *[str(a).format(trace=fgn_trace, out=out) for a in argv])
    assert code == 2
    assert captured.err.startswith(f"usage: scalefit {argv[0]} ")
    assert f"scalefit {argv[0]}: error: " in captured.err


def test_import_loads_no_scipy_until_cascade(tmp_path):
    """Importing the package and the CLI, and an fGn generate -> report,
    load no scipy module; the cascade models import it when they run."""
    script = """
import sys
import scalefit, scalefit.cli
from scalefit.cli import main

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert scipy_loaded() == [], scipy_loaded()
assert main(["generate", "--model", "fgn", "--length", "4096", "--out", "f.csv"]) == 0
assert main(["report", "f.csv", "--outdir", "rep"]) == 0
assert scipy_loaded() == [], scipy_loaded()
assert "numpy.ma" not in sys.modules
assert main(["generate", "--model", "cascade", "--depth", "10", "--out", "c.csv"]) == 0
assert main(["generate", "--model", "multifractal", "--length", "1024", "--depth", "10",
             "--out", "m.csv"]) == 0
assert "scipy.special" in scipy_loaded()
"""
    env = dict(os.environ, PYTHONPATH=str(Path(scalefit.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


class TestHurst:
    def test_each_order_fitted_once(self, fgn_trace, capsys, monkeypatch):
        fitted = []
        fit_loglog = scaling.fit_loglog

        def counting_fit(table, m, window=None):
            fitted.append(m)
            return fit_loglog(table, m, window)

        monkeypatch.setattr(scaling, "fit_loglog", counting_fit)
        assert run("hurst", fgn_trace, "--order", 2, "--max-order", 4) == 0
        assert sorted(fitted) == [1, 2, 3, 4]
        assert "Hurst estimate" in capsys.readouterr().out

    def test_cumulant_estimate_near_target(self, fgn_trace, capsys):
        assert run("hurst", fgn_trace, "--method", "cumulant", "--order", 2) == 0
        out = capsys.readouterr().out
        estimate = float(out.strip().splitlines()[-1].split()[2])
        assert estimate == pytest.approx(0.6, abs=0.05)

    def test_wavelet_estimate_near_target(self, fgn_trace, capsys):
        assert run("hurst", fgn_trace, "--method", "wavelet") == 0
        out = capsys.readouterr().out
        estimate = float(out.strip().splitlines()[-1].split()[2])
        assert estimate == pytest.approx(0.6, abs=0.05)

    def test_wavelet_window_flags(self, fgn_trace, capsys):
        assert run("hurst", fgn_trace, "--method", "wavelet", "--j-lo", 4, "--j-hi", 9) == 0
        assert "octaves=[4,9]" in capsys.readouterr().out

    def test_wavelet_diagram_csv_out(self, fgn_trace, tmp_path, capsys):
        out = tmp_path / "diagram.csv"
        assert run("hurst", fgn_trace, "--method", "wavelet", "--family", "haar",
                   "--out", out) == 0
        assert out.read_text().splitlines()[0] == "octave,log2_energy,count"
        assert "Hurst estimate" in capsys.readouterr().out

    def test_gaussian_order3_clean_diagnostic_exit_1(self, fgn_trace, capsys):
        assert run("hurst", fgn_trace, "--method", "cumulant", "--order", 3) == 1
        assert "usable scales" in capsys.readouterr().err

    def test_missing_input_exit_2(self, capsys):
        code, captured = run_expecting_exit(capsys, "hurst", "no_such_trace.csv")
        assert code == 2
        assert "no_such_trace.csv" in captured.err

    def test_spectrum_csv_out(self, fgn_trace, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run("hurst", fgn_trace, "--method", "cumulant", "--out", out) == 0
        assert out.read_text().splitlines()[0] == "order,hurst,r_squared"


class TestLocality:
    def test_curve_csv_and_knee_report(self, fgn_trace, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run("locality", fgn_trace, "--out", out) == 0
        report = capsys.readouterr().out
        assert "knee octave" in report
        lines = out.read_text().splitlines()
        assert lines[0] == "octave,hurst"
        assert len(lines) > 6

    def test_window_minimum_cited_exit_2(self, fgn_trace, capsys):
        code, captured = run_expecting_exit(capsys, "locality", fgn_trace, "--window", 2)
        assert code == 2
        assert "3" in captured.err

    def test_no_significant_knee_at_high_threshold(self, fgn_trace, capsys):
        assert run("locality", fgn_trace, "--knee-threshold", "0.995") == 0
        assert "no significant knee" in capsys.readouterr().out

    def test_wavelet_method(self, fgn_trace, capsys):
        assert run("locality", fgn_trace, "--method", "wavelet") == 0
        assert "knee octave" in capsys.readouterr().out

    def test_wavelet_zero_energy_octave_left_out(self, tmp_path, capsys):
        """Haar octave 1 of a trace with every sample repeated twice is
        zero up to round-off; it must not enter the first window's fit.
        A constant trace has no usable octave at all."""
        fgn = generate_fgn(FgnSpec(0.8, 2**16, 1.0, 7))
        doubled, constant = tmp_path / "doubled.csv", tmp_path / "constant.csv"
        write_trace(Trace(np.repeat(fgn.samples, 2)), doubled)
        write_trace(Trace(np.full(2**12, 3.0)), constant)
        curve = tmp_path / "curve.csv"
        assert run("locality", doubled, "--method", "wavelet", "--family", "haar",
                   "--out", curve) == 0
        hurst = np.loadtxt(curve, delimiter=",", skiprows=1)[:, 1]
        np.testing.assert_allclose(hurst, 0.8, atol=0.2)
        assert run("locality", constant, "--method", "wavelet", "--family", "haar") == 1
        assert "energy" in capsys.readouterr().err


class TestAggregateAndCumulants:
    def test_aggregate_roundtrip(self, fgn_trace, tmp_path):
        out = tmp_path / "agg.csv"
        assert run("aggregate", fgn_trace, "--scale", 16, "--out", out) == 0
        assert read_trace(out).samples.size == 65536 // 16

    def test_cumulants_table(self, fgn_trace, tmp_path):
        out = tmp_path / "table.csv"
        assert run("cumulants", fgn_trace, "--max-order", 4, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "order,scale,log2_abs_cumulant,usable"
        assert len(lines) == 1 + 4 * 14  # 4 orders x 14 dyadic scales


class TestReport:
    def test_bundle_contents(self, fgn_trace, tmp_path):
        outdir = tmp_path / "rep"
        assert run("report", fgn_trace, "--outdir", outdir) == 0
        names = sorted(os.listdir(outdir))
        assert names == [
            "cumulant_table.csv",
            "hurst_spectrum.csv",
            "knees.csv",
            "locality_cumulant.csv",
            "locality_wavelet.csv",
            "logscale_diagram.csv",
            "manifest.json",
        ]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert len(manifest["files"]) == 6
        assert "omitted_knees" not in manifest

    def test_bundle_independent_of_blas_threads(self, fgn_trace, tmp_path):
        """Every report file has the same bytes under 1 and 2 BLAS threads
        (a BLAS dot product splits its sum by thread count)."""
        bundles = []
        for threads in ("1", "2"):
            outdir = tmp_path / f"rep{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(scalefit.__file__).parents[1]))
            result = subprocess.run(
                [sys.executable, "-m", "scalefit.cli", "report", str(fgn_trace),
                 "--outdir", str(outdir)],
                env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            bundles.append({name: (outdir / name).read_bytes() for name in os.listdir(outdir)})
        assert bundles[0] == bundles[1]

    def test_short_locality_curve_omits_its_knee(self, tmp_path):
        """A locality curve too short for detect_knee loses its knees.csv
        row, with the reason in the manifest; the rest of the bundle is
        written."""
        trace = tmp_path / "cascade.csv"
        assert run("generate", "--model", "cascade", "--depth", 12, "--seed", 5,
                   "--out", trace) == 0
        outdir = tmp_path / "rep"
        assert run("report", trace, "--outdir", outdir, "--max-order", 6, "--order", 3) == 0
        assert len(os.listdir(outdir)) == 7
        rows = (outdir / "knees.csv").read_text().splitlines()
        assert rows[0] == "method,octave,left_slope,right_slope,sse_reduction,significant"
        assert [row.split(",")[0] for row in rows[1:]] == ["wavelet"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["omitted_knees"] == {
            "cumulant": "knee detection needs at least 6 points, got 5"}

    def test_rerun_byte_identical(self, fgn_trace, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("report", fgn_trace, "--outdir", out_a) == 0
        assert run("report", fgn_trace, "--outdir", out_b) == 0
        for name in os.listdir(out_a):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_order_above_max_order(self, tmp_path):
        """The table is built deep enough for --order (order 5 cumulants
        of a cascade are usable; those of Gaussian fGn are not)."""
        trace = tmp_path / "cascade.csv"
        assert run("generate", "--model", "cascade", "--depth", 16, "--seed", 3,
                   "--out", trace) == 0
        assert run("report", trace, "--outdir", tmp_path / "rep",
                   "--order", 5, "--max-order", 4) == 0

    def test_manifest_records_built_table_depth(self, tmp_path):
        """--order deeper than --max-order deepens the table; the manifest
        records the depth actually written."""
        trace = tmp_path / "cascade.csv"
        assert run("generate", "--model", "cascade", "--depth", 16, "--seed", 3,
                   "--out", trace) == 0
        outdir = tmp_path / "rep"
        assert run("report", trace, "--outdir", outdir, "--order", 5, "--max-order", 4) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        rows = (outdir / "cumulant_table.csv").read_text().splitlines()[1:]
        assert max(int(row.split(",")[0]) for row in rows) == 5
        assert manifest["parameters"]["max_order"] == 5

    def test_huge_magnitude_trace(self, tmp_path):
        """Power sums of order 6 of 1e60-scale data overflow unless the
        k-statistics are computed on a rescaled sample."""
        trace = tmp_path / "huge.csv"
        fgn = generate_fgn(FgnSpec(0.8, 4096, 1.0, 3))
        write_trace(Trace(1e60 * fgn.samples), trace)
        assert run("report", trace, "--outdir", tmp_path / "rep", "--max-order", 6) == 0

    @pytest.mark.parametrize("threshold", [0.2, 0.995])
    def test_knees_significant_is_knee_rule(self, fgn_trace, tmp_path, threshold):
        """knees.csv flags each method's knee by KneePoint.significant."""
        outdir = tmp_path / "rep"
        assert run("report", fgn_trace, "--outdir", outdir, "--knee-threshold", threshold) == 0
        trace = read_trace(fgn_trace)
        table = scalefit.cumulant_scaling_table(scalefit.build_pyramid(trace), 2)
        spec = scalefit.WaveletSpec("db4", scalefit.max_levels(len(trace)))
        diagram = scalefit.logscale_diagram(trace, spec)
        curves = {"cumulant": scalefit.locality_curve(table, 2),
                  "wavelet": scalefit.wavelet_locality_curve(diagram)}
        rows = [row.split(",") for row in (outdir / "knees.csv").read_text().splitlines()[1:]]
        assert {row[0]: row[-1] for row in rows} == {
            method: "true" if scalefit.detect_knee(curve).significant(threshold) else "false"
            for method, curve in curves.items()}

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code, captured = run_expecting_exit(
            capsys, "report", tmp_path / "absent.csv", "--outdir", tmp_path / "rep")
        assert code == 2
        assert "absent.csv" in captured.err


@pytest.mark.parametrize("argv", [
    ("report", "--outdir", "{tmp}/rep"),
    ("hurst",),
    ("hurst", "--method", "wavelet"),
    ("locality",),
    ("locality", "--method", "wavelet"),
    ("cumulants", "--out", "{tmp}/table.csv"),
    ("aggregate", "--scale", "2", "--out", "{tmp}/agg.csv"),
    ("aggregate", "--scale", "4096", "--out", "{tmp}/agg.csv"),
])
def test_overflowing_sums_one_error_line(overflow_trace, tmp_path, capsys, argv):
    """A finite trace whose sums overflow float64 exits 1 with one error
    line naming the overflow, and warns nothing on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv[0], overflow_trace, *(a.format(tmp=tmp_path) for a in argv[1:]))
    captured = capsys.readouterr()
    assert code == 1
    assert [str(w.message) for w in caught] == []
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"scalefit {argv[0]}: error: the trace's sums overflow float64: "
        f"sum |x| = inf is not below 1.12e+307"]
    assert list(tmp_path.iterdir()) == []


class TestEndToEndDeterminism:
    def test_generate_report_pipeline(self, tmp_path):
        results = []
        for tag in ("x", "y"):
            workdir = tmp_path / tag
            workdir.mkdir()
            trace = workdir / "t.csv"
            outdir = workdir / "rep"
            assert run("generate", "--model", "multifractal", "--hurst", 0.7,
                       "--length", 4096, "--depth", 12, "--seed", 9,
                       "--cascade-seed", 11, "--out", trace) == 0
            assert run("report", trace, "--outdir", outdir) == 0
            results.append({
                name: (outdir / name).read_bytes() for name in os.listdir(outdir)
            })
        assert results[0] == results[1]
