import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalefit
from scalefit import cumulants, rng, scaling, synth, wavelet
from scalefit.aggregate import check_block_size
from scalefit.cli import main
from scalefit.synth import FgnSpec, Trace, generate_fgn
from scalefit.trace_io import read_trace, sidecar_path, write_trace


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
def order1_trace(tmp_path_factory):
    """fGn whose order-1 locality curve has a knee to test: 6 windows or more."""
    path = tmp_path_factory.mktemp("traces") / "fgn08.csv"
    write_trace(generate_fgn(FgnSpec(0.8, 4096, 1.0, 3)), path)
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
        assert run("generate", "--model", "cascade", "--length", 1024, "--multiplier", 2.0,
                   "--seed", 3, "--out", out) == 0
        trace = read_trace(out)
        assert trace.samples.size == 1024
        assert trace.samples.min() >= 0.0

    def test_cascade_seed_seeds_cascade_model(self, tmp_path):
        paths = {tag: tmp_path / f"{tag}.csv" for tag in ("given", "seed2", "default")}
        cascade = ["generate", "--model", "cascade", "--length", 1024]
        assert run(*cascade, "--seed", 1, "--cascade-seed", 2, "--out", paths["given"]) == 0
        assert run(*cascade, "--seed", 2, "--out", paths["seed2"]) == 0
        assert run(*cascade, "--seed", 1, "--out", paths["default"]) == 0
        assert paths["given"].read_bytes() == paths["seed2"].read_bytes()
        assert json.loads(Path(sidecar_path(paths["given"])).read_text())["seed"] == 2
        # without --cascade-seed the cascade is seeded from --seed
        expected = tmp_path / "expected.csv"
        write_trace(synth.generate_cascade(synth.CascadeSpec(10, 2.0, 1.0, 1)), expected)
        assert paths["default"].read_bytes() == expected.read_bytes()

    def test_multifractal_length_consistency(self, tmp_path):
        """--length sizes the composite's cascade too: one cell per fGn sample."""
        out, expected = tmp_path / "m.csv", tmp_path / "expected.csv"
        assert run("generate", "--model", "multifractal", "--hurst", 0.7,
                   "--length", 1024, "--seed", 1, "--out", out) == 0
        assert read_trace(out).samples.size == 1024
        assert json.loads(Path(sidecar_path(out)).read_text())["params"]["depth"] == 10
        write_trace(synth.generate_multifractal(synth.FgnSpec(0.7, 1024, 1.0, 1),
                                                synth.CascadeSpec(10, 2.0, 1.0, 1)), expected)
        assert out.read_bytes() == expected.read_bytes()

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
    # --levels is gone: the diagram takes every octave the trace length allows
    (["hurst", "{trace}", "--method", "wavelet", "--levels", 0],
     "unrecognized arguments: --levels 0"),
    (["aggregate", "{trace}", "--scale", 0, "--out", "{out}"],
     "--scale must be a positive integer, got 0"),
    (["generate", "--model", "fgn", "--hurst", 1.2, "--out", "{out}"],
     "--hurst must be in the open interval (0, 1), got 1.2"),
    (["generate", "--model", "fgn", "--length", 1000, "--out", "{out}"],
     "--length must be a power of two >= 16, got 1000"),
    # --depth is gone under every model: --length sizes the cascade
    (["generate", "--model", "cascade", "--depth", 1, "--out", "{out}"],
     "scalefit generate: error: unrecognized arguments: --depth 1"),
    (["generate", "--model", "multifractal", "--length", 1024, "--depth", 9,
      "--out", "{out}"], "scalefit generate: error: unrecognized arguments: --depth 9"),
    (["generate", "--model", "fgn", "--depth", 1, "--length", 1024, "--out", "{out}"],
     "scalefit generate: error: unrecognized arguments: --depth 1"),
    (["generate", "--model", "fgn", "--variance", "inf", "--out", "{out}"],
     "--variance must be finite and positive, got inf"),
    (["generate", "--model", "cascade", "--multiplier", "inf", "--out", "{out}"],
     "--multiplier must be finite and positive, got inf"),
    (["generate", "--model", "multifractal", "--length", 1024, "--mass", "inf",
      "--out", "{out}"], "--mass must be finite and positive, got inf"),
    (["generate", "--model", "cascade", "--mass", -1, "--out", "{out}"],
     "--mass must be finite and positive, got -1.0"),
    (["generate", "--model", "cascade", "--seed", -1, "--out", "{out}"],
     "--seed must be an unsigned 64-bit integer, got -1"),
    (["generate", "--model", "multifractal", "--length", 1024, "--cascade-seed", -1,
      "--out", "{out}"],
     "--cascade-seed must be an unsigned 64-bit integer, got -1"),
    # every flag given is checked, whether or not the model reads it
    (["generate", "--model", "cascade", "--hurst", 1.5, "--length", 16, "--out", "{out}"],
     "--hurst must be in the open interval (0, 1), got 1.5"),
    (["generate", "--model", "cascade", "--cascade-seed", -1, "--length", 16, "--out", "{out}"],
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


@pytest.mark.parametrize("check, value, rest", [
    (synth.check_hurst, 1.2, "must be in the open interval (0, 1), got 1.2"),
    (synth.check_fgn_length, 1000, "must be a power of two >= 16, got 1000"),
    (synth.check_depth, 1, "must be an integer >= 2, got 1"),
    (synth.check_positive, float("inf"), "must be finite and positive, got inf"),
    (rng.check_seed, -1, "must be an unsigned 64-bit integer, got -1"),
    (rng.check_seed, 1.5, "must be an unsigned 64-bit integer, got 1.5"),
    (check_block_size, 0, "must be a positive integer, got 0"),
    (cumulants.check_order, 7, "must be in 1..6, got 7"),
    (scaling.check_window_width, 2, "must be at least 3 octaves, got 2"),
    (scaling.check_finite, float("nan"), "must be finite, got nan"),
    (scaling.check_knee_threshold, float("inf"), "must be finite, got inf"),
    (scaling.check_knee_threshold, -1.0, "must be nonnegative, got -1.0"),
])
def test_owner_check_reports_given_name(check, value, rest):
    """Each owner rule names what it is told to: the CLI passes its flag."""
    with pytest.raises(ValueError) as excinfo:
        check(value, "--some-flag")
    assert str(excinfo.value) == f"--some-flag {rest}"


@pytest.mark.parametrize("build, message", [
    (lambda: synth.FgnSpec(1.2, 4096), "hurst must be in the open interval (0, 1), got 1.2"),
    (lambda: synth.FgnSpec(0.7, 1000), "length must be a power of two >= 16, got 1000"),
    (lambda: synth.FgnSpec(0.7, 1024, 0.0), "variance must be finite and positive, got 0.0"),
    (lambda: synth.FgnSpec(0.7, 1024, 1.0, -1),
     "seed must be an unsigned 64-bit integer, got -1"),
    (lambda: synth.CascadeSpec(1), "depth must be an integer >= 2, got 1"),
    (lambda: synth.CascadeSpec(4, float("inf")),
     "multiplier_param must be finite and positive, got inf"),
    (lambda: synth.CascadeSpec(4, 2.0, -1.0), "total_mass must be finite and positive, got -1.0"),
    (lambda: wavelet.WaveletSpec("db4", 0), "levels must be a positive integer, got 0"),
    (lambda: scaling.check_window_width(2), "window_width must be at least 3 octaves, got 2"),
    (lambda: check_block_size(0), "block size must be a positive integer, got 0"),
    (lambda: scaling.check_knee_threshold(-1.0), "threshold must be nonnegative, got -1.0"),
])
def test_library_messages_name_fields(build, message):
    """Specs and library calls report their own field and parameter names."""
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("argv", [
    ["hurst", "{trace}", "--order", 0],
    ["locality", "{trace}", "--window", 2],
    ["aggregate", "{trace}", "--scale", 0, "--out", "{out}"],
    ["report", "no_such_trace.csv", "--outdir", "{out}"],
    ["generate", "--model", "fgn", "--length", 1000, "--out", "{out}"],
    ["generate", "--model", "cascade", "--length", 1024, "--depth", 10, "--out", "{out}"],
], ids=lambda argv: " ".join(str(a) for a in argv if "{" not in str(a)))
def test_owner_rule_error_names_subcommand(fgn_trace, tmp_path, capsys, argv):
    """Rules checked after parsing, and unknown flags, report like argparse's
    own errors: the subcommand's usage line and a "scalefit <cmd>: error:"
    prefix."""
    out = tmp_path / "out"
    code, captured = run_expecting_exit(
        capsys, *[str(a).format(trace=fgn_trace, out=out) for a in argv])
    assert code == 2
    assert captured.err.startswith(f"usage: scalefit {argv[0]} ")
    assert f"scalefit {argv[0]}: error: " in captured.err


def test_runs_with_scipy_blocked(tmp_path):
    """scipy is no dependency: with every scipy import made to fail, the
    package and the CLI import, each generate model runs, and so does a
    report on each trace, which loads no numpy.ma either."""
    script = """
import sys
sys.modules["scipy"] = None
import scalefit, scalefit.cli
from scalefit.cli import main

for model in ("fgn", "cascade", "multifractal"):
    assert main(["generate", "--model", model, "--length", "4096", "--out", model + ".csv"]) == 0
    assert main(["report", model + ".csv", "--outdir", model + "-rep"]) == 0
assert "numpy.ma" not in sys.modules
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

    def test_order_1_curve_has_no_significant_knee(self, order1_trace, capsys):
        """H(1) is 1 by construction, so its curve is flat to rounding."""
        assert run("locality", order1_trace, "--order", 1) == 0
        report = capsys.readouterr().out
        assert "(0.0% of single-line SSE)" in report
        assert "no significant knee" in report

    @pytest.mark.parametrize("flags, shown", [((), "20%"), (("--knee-threshold", "0.005"), "0.5%")])
    def test_threshold_line_keeps_fractional_percent(self, order1_trace, capsys, flags, shown):
        """The threshold prints as given: 0.005 is 0.5%, not a rounded 0%."""
        assert run("locality", order1_trace, "--order", 1, *flags) == 0
        assert f"no significant knee (reduction below {shown} threshold)" in capsys.readouterr().out

    def test_short_curve_no_knee_line(self, tmp_path, capsys):
        """A curve too short for detect_knee is still written: locality
        prints the reason report records under omitted_knees, exits 0.
        A 1024-cell cascade has 8 dyadic scales, so its 4-octave curve
        has at most 5 points, whatever the stream draws."""
        trace, out = tmp_path / "cascade.csv", tmp_path / "c.csv"
        assert run("generate", "--model", "cascade", "--length", 1024, "--seed", 5,
                   "--out", trace) == 0
        capsys.readouterr()
        assert run("locality", trace, "--order", 3, "--out", out) == 0
        captured = capsys.readouterr()
        points = len(out.read_text().splitlines()) - 1
        assert points < 6
        assert captured.out.splitlines()[1:] == [
            f"no knee: knee detection needs at least 6 points, got {points}", f"wrote {out}"]
        assert captured.err == ""

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

    @pytest.mark.parametrize("magnitude, scale, summary", [
        (1.0, 4096, "length=1 mean=1582.81 variance=nan"),
        (1e300, 2, "length=2048 mean=7.72858e+299 variance=inf"),
    ])
    def test_summary_without_warnings(self, tmp_path, capsys, magnitude, scale, summary):
        """One block has no sample variance, and squares past float64 have an
        infinite one: the summary line prints nan or inf and warns nothing."""
        trace, out = tmp_path / "t.csv", tmp_path / "agg.csv"
        write_trace(Trace(magnitude * generate_fgn(FgnSpec(0.8, 4096, 1.0, 3)).samples), trace)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("aggregate", trace, "--scale", scale, "--out", out) == 0
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert summary in captured.out and captured.err == ""

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
        written. A 1024-cell cascade has 8 dyadic scales and 7 db4
        octaves, so neither 4-octave curve reaches the 6 points a knee
        needs, whatever the stream draws."""
        trace = tmp_path / "cascade.csv"
        assert run("generate", "--model", "cascade", "--length", 1024, "--seed", 5,
                   "--out", trace) == 0
        outdir = tmp_path / "rep"
        assert run("report", trace, "--outdir", outdir, "--max-order", 6, "--order", 3) == 0
        assert len(os.listdir(outdir)) == 7
        assert (outdir / "knees.csv").read_text().splitlines() == [
            "method,octave,left_slope,right_slope,sse_reduction,significant"]
        points = {method: len((outdir / f"locality_{method}.csv").read_text().splitlines()) - 1
                  for method in ("cumulant", "wavelet")}
        assert max(points.values()) < 6
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["omitted_knees"] == {
            method: f"knee detection needs at least 6 points, got {k}"
            for method, k in points.items()}

    def test_aggregated_trace_any_length(self, tmp_path, capsys):
        """aggregate --scale 3 of 2^12 samples leaves 1365: the wavelet path
        drops the samples past its last multiple of 2**levels, as
        aggregate does, and both report and wavelet hurst run on it."""
        trace, agg = tmp_path / "t.csv", tmp_path / "agg.csv"
        write_trace(generate_fgn(FgnSpec(0.8, 4096, 1.0, 3)), trace)
        assert run("aggregate", trace, "--scale", 3, "--out", agg) == 0
        assert read_trace(agg).samples.size == 1365
        outdir = tmp_path / "rep"
        assert run("report", agg, "--outdir", outdir) == 0
        assert len(os.listdir(outdir)) == 7
        assert run("hurst", agg, "--method", "wavelet") == 0
        assert capsys.readouterr().err == ""

    def test_warnings_one_line_each(self, tmp_path, capsys):
        """A warning a command raises prints as one "scalefit <cmd>: warning:"
        line: H(2) and H(4) of a step trace lie outside (0, 1), and a trace
        without its sidecar loads with empty metadata."""
        trace = tmp_path / "step.csv"
        write_trace(Trace(np.repeat([0.0, 1.0], 2048)), trace)
        os.remove(f"{trace}.meta.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("report", trace, "--outdir", tmp_path / "rep") == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            f"scalefit report: warning: sidecar {trace}.meta.json missing; "
            "trace loaded with empty metadata",
            *(f"scalefit report: warning: fit_loglog(order={m}): estimated Hurst exponent "
              f"{h} lies outside (0, 1); reported unclamped" for m, h in ((2, 1.008), (4, 1.003)))]

    @pytest.mark.parametrize("model", ["cascade", "multifractal"])
    def test_tiny_shape_trace(self, model, tmp_path, capsys):
        """A Beta(0.01, 0.01) cascade splits some masses into exact 0 and
        1 shares, leaving runs of zero cells: report on it, or on its
        composite, ends in an exit code, never a traceback, and every
        stderr line is the command's own."""
        trace = tmp_path / "tiny.csv"
        assert run("generate", "--model", model, "--multiplier", 0.01, "--length", 65536,
                   "--seed", 3, "--out", trace) == 0
        for flags in ((), ("--max-order", 6, "--order", 3)):
            capsys.readouterr()
            assert run("report", trace, "--outdir", tmp_path / "rep", *flags) in (0, 1, 2)
            assert all(line.startswith("scalefit report: ")
                       for line in capsys.readouterr().err.splitlines())

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
        assert run("generate", "--model", "cascade", "--length", 65536, "--seed", 3,
                   "--out", trace) == 0
        assert run("report", trace, "--outdir", tmp_path / "rep",
                   "--order", 5, "--max-order", 4) == 0

    def test_manifest_records_built_table_depth(self, tmp_path):
        """--order deeper than --max-order deepens the table; the manifest
        records the depth actually written."""
        trace = tmp_path / "cascade.csv"
        assert run("generate", "--model", "cascade", "--length", 65536, "--seed", 3,
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

    def test_order_1_knee_not_significant(self, order1_trace, tmp_path):
        outdir = tmp_path / "rep"
        assert run("report", order1_trace, "--order", 1, "--outdir", outdir) == 0
        rows = [row.split(",") for row in (outdir / "knees.csv").read_text().splitlines()[1:]]
        assert rows[0][0] == "cumulant" and rows[0][-1] == "false"

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


@pytest.fixture(scope="module")
def squares_trace(tmp_path_factory):
    """Finite samples whose sums fit float64 but whose squares do not."""
    path = tmp_path_factory.mktemp("traces") / "squares.csv"
    write_trace(Trace(1e160 * generate_fgn(FgnSpec(0.8, 4096, 1.0, 3)).samples), path)
    return path


@pytest.mark.parametrize("argv", [
    pytest.param(("hurst", "--method", "wavelet"), id="hurst"),
    pytest.param(("locality", "--method", "wavelet"), id="locality"),
    pytest.param(("hurst",), id="hurst-cumulant"),
    pytest.param(("locality",), id="locality-cumulant"),
    pytest.param(("cumulants", "--out", "{tmp}/table.csv"), id="cumulants"),
    pytest.param(("report", "--outdir", "{tmp}/rep"), id="report"),
])
def test_overflowing_squares_one_error_line(squares_trace, tmp_path, capsys, argv):
    """Both routes name the squares overflow in one error line, warn
    nothing and write nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv[0], squares_trace, *(a.format(tmp=tmp_path) for a in argv[1:]))
    captured = capsys.readouterr()
    assert code == 1
    assert [str(w.message) for w in caught] == []
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"scalefit {argv[0]}: error: the trace's squares overflow float64: "
        "sum (x - mean)^2 = inf is not below 1.12e+307"]
    assert list(tmp_path.iterdir()) == []


def test_sidecar_not_an_object_one_error_line(fgn_trace, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_bytes(fgn_trace.read_bytes())
    Path(sidecar_path(trace)).write_text("[]\n")
    assert run("hurst", trace) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"scalefit hurst: error: {sidecar_path(trace)}: expected a JSON object, got array"]


@pytest.mark.parametrize("in_sidecar", [False, True], ids=["csv", "sidecar"])
def test_non_ascii_byte_one_error_line(fgn_trace, tmp_path, capsys, in_sidecar):
    trace = tmp_path / "t.csv"
    spath = Path(sidecar_path(trace))
    trace.write_bytes(fgn_trace.read_bytes())
    spath.write_bytes(Path(sidecar_path(fgn_trace)).read_bytes())
    damaged, named = (spath, f"{spath}: ") if in_sidecar else (trace, f"{trace}:4: ")
    lines = damaged.read_bytes().split(b"\n")
    lines[3] += b"\xc3\xa9"  # ends line 4
    damaged.write_bytes(b"\n".join(lines))
    assert run("hurst", trace) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"scalefit hurst: error: {named}non-ASCII byte 0xc3")


def test_deeply_nested_sidecar_one_error_line(fgn_trace, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_bytes(fgn_trace.read_bytes())
    Path(sidecar_path(trace)).write_text("[" * 100_000 + "]" * 100_000)
    assert run("hurst", trace) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"scalefit hurst: error: {sidecar_path(trace)}: invalid JSON: ")


def _cut_rows(lines):
    del lines[3:6]


def _nan_text(lines):
    lines[3] = b"3,nan"


def _no_header(lines):
    del lines[0]


@pytest.mark.parametrize("damage, named", [
    (_cut_rows, "{trace}:4: expected index 3, got 6"),
    (_nan_text, "{trace}:4: non-finite sample 'nan'"),
    (_no_header, "{trace}:1: expected header 'index,value', got '1,"),
], ids=["cut_rows", "nan_text", "no_header"])
def test_corrupt_csv_one_error_line(fgn_trace, tmp_path, capsys, damage, named):
    trace = tmp_path / "t.csv"
    Path(sidecar_path(trace)).write_bytes(Path(sidecar_path(fgn_trace)).read_bytes())
    lines = fgn_trace.read_bytes().split(b"\n")
    damage(lines)
    trace.write_bytes(b"\n".join(lines))
    assert run("hurst", trace) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"scalefit hurst: error: {named.format(trace=trace)}")


# a long fGn whose leading samples are the contract test's fGn traces
_FGN = generate_fgn(FgnSpec(0.8, 8192, 1.0, 11)).samples
CONTRACT_ARGV = [
    ("report", "--outdir", "{tmp}/rep"),
    ("hurst",),
    ("hurst", "--method", "wavelet"),
    ("locality",),
    ("locality", "--method", "wavelet"),
    ("cumulants", "--out", "{tmp}/table.csv"),
    ("aggregate", "--scale", "2", "--out", "{tmp}/agg.csv"),
]


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["fgn", "constant", "step"]), length=st.integers(1, 5000),
       exponent=st.integers(-300, 300))
@example(kind="fgn", length=4096, exponent=160)
@example(kind="fgn", length=1365, exponent=0)
@example(kind="step", length=4096, exponent=0)
@example(kind="constant", length=2, exponent=0)
def test_stderr_contract(kind, length, exponent):
    """Every finite trace, whatever its kind, length or magnitude, ends each
    command in exit 0 or 1, and every stderr line is the command's own:
    "scalefit <cmd>: error: ..." or "scalefit <cmd>: warning: ..."."""
    samples = {"fgn": _FGN[:length], "constant": np.ones(length),
               "step": np.arange(length) >= length // 2}[kind] * 10.0**exponent
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        write_trace(Trace(samples), trace)
        for command, *flags in CONTRACT_ARGV:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([command, str(trace), *(f.format(tmp=tmp) for f in flags)])
            assert code in (0, 1), (command, err.getvalue())
            assert [str(w.message) for w in caught] == [], command
            assert all(line.startswith(f"scalefit {command}: ")
                       for line in err.getvalue().splitlines()), err.getvalue()


class TestEndToEndDeterminism:
    def test_generate_report_pipeline(self, tmp_path):
        results = []
        for tag in ("x", "y"):
            workdir = tmp_path / tag
            workdir.mkdir()
            trace = workdir / "t.csv"
            outdir = workdir / "rep"
            assert run("generate", "--model", "multifractal", "--hurst", 0.7,
                       "--length", 4096, "--seed", 9,
                       "--cascade-seed", 11, "--out", trace) == 0
            assert run("report", trace, "--outdir", outdir) == 0
            results.append({
                name: (outdir / name).read_bytes() for name in os.listdir(outdir)
            })
        assert results[0] == results[1]
