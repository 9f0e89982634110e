import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scalefit

ROOT = Path(__file__).parents[1]
SCRIPT = ROOT / "scripts" / "reproduce_locality.py"
STAGES = ROOT / "scripts" / "bench_stages.py"


def _env():
    return dict(os.environ, PYTHONPATH=str(Path(scalefit.__file__).parents[1]))


def test_reproduce_locality(tmp_path):
    """One seed: a mean locality curve per family and method, written as an
    "octave,hurst" CSV, and one knee summary line for each."""
    outdir = tmp_path / "results"
    result = subprocess.run([sys.executable, str(SCRIPT), "--seeds", "1", "--outdir", str(outdir)],
                            env=_env(), capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    curves = sorted(outdir.iterdir())
    assert len(curves) == 6
    for path in curves:
        assert path.read_text().splitlines()[0] == "octave,hurst", path.name
    knee_lines = [line for line in result.stdout.splitlines() if " knee@" in line]
    summaries = sorted(re.match(r"(\S+) \[(\w+)\]: ", line).groups() for line in knee_lines)
    assert summaries == sorted(tuple(p.stem.split("_locality_")) for p in curves)


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_reproduce_locality_refuses_seed_counts_below_one(tmp_path, seeds):
    """A seed count below 1 is a usage error (exit 2) before any output,
    not a traceback from averaging no curves."""
    outdir = tmp_path / "results"
    result = subprocess.run([sys.executable, str(SCRIPT), "--seeds", seeds, "--outdir", str(outdir)],
                            env=_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert f"--seeds must be a positive integer, got {seeds}" in result.stderr
    assert "Traceback" not in result.stderr
    assert not outdir.exists()


def test_readme_library_example():
    """The README's python block runs as written against the package."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    result = subprocess.run([sys.executable, "-c", blocks[0]], env=_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_bench_stages_smoke(tmp_path):
    """At 2^12, two runs each: every stage of the chain has each run's time,
    their minimum and each run's page-fault count, and each CLI step each
    run's wall time, their minimum and the peak RSS."""
    out = tmp_path / "bench.json"
    result = subprocess.run([sys.executable, str(STAGES), "--out", str(out),
                             "--log2-sizes", "12", "--repeats", "2"],
                            env=_env(), capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    record = json.loads(out.read_text())
    assert {"cpu_model", "logical_cpus", "python", "numpy"} <= set(record["host"])
    size = record["sizes"]["2^12"]
    assert set(size["stages"]) == {
        "generate_fgn", "generate_cascade", "generate_multifractal", "write_trace",
        "read_trace", "build_pyramid", "cumulant_scaling_table", "logscale_diagram",
        "fit_loglog", "hurst_spectrum", "wavelet_hurst", "locality_curve",
        "wavelet_locality_curve", "detect_knee_cumulant", "detect_knee_wavelet"}
    for stage in size["stages"].values():
        assert len(stage["runs_s"]) == len(stage["minflt"]) == 2
        assert stage["min_s"] == min(stage["runs_s"]) > 0
    for model in ("fgn", "multifractal"):
        for step in ("generate", "report"):
            step_record = size["cli"][model][step]
            assert len(step_record["runs_s"]) == 2
            assert step_record["min_wall_s"] == min(step_record["runs_s"]) > 0
            assert step_record["peak_rss_mb"] > 0
