import os
import re
import subprocess
import sys
from pathlib import Path

import scalefit

SCRIPT = Path(__file__).parents[1] / "scripts" / "reproduce_locality.py"


def test_reproduce_locality(tmp_path):
    """One seed: a mean locality curve per family and method, written as an
    "octave,hurst" CSV, and one knee summary line for each."""
    env = dict(os.environ, PYTHONPATH=str(Path(scalefit.__file__).parents[1]))
    outdir = tmp_path / "results"
    result = subprocess.run([sys.executable, str(SCRIPT), "--seeds", "1", "--outdir", str(outdir)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    curves = sorted(outdir.iterdir())
    assert len(curves) == 6
    for path in curves:
        assert path.read_text().splitlines()[0] == "octave,hurst", path.name
    knee_lines = [line for line in result.stdout.splitlines() if " knee@" in line]
    summaries = sorted(re.match(r"(\S+) \[(\w+)\]: ", line).groups() for line in knee_lines)
    assert summaries == sorted(tuple(p.stem.split("_locality_")) for p in curves)
