import os
import re
import subprocess
import sys
from pathlib import Path

import scalefit

ROOT = Path(__file__).parents[1]
SCRIPT = ROOT / "scripts" / "reproduce_locality.py"


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


def test_readme_library_example():
    """The README's python block runs as written against the package."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    result = subprocess.run([sys.executable, "-c", blocks[0]], env=_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
