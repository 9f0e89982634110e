"""Smoke tests of the benchmark itself: every workload once, at 2**12.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _smoke(workload, trace):
    out = _run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    stdout, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["attempted"] == 1
    assert result["failed"] == 0 and result["correct"], stdout
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert re.search(r"^\s*failed_ratio\s+0\s", stdout, re.M), stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_io_reached_only_by_the_cli(workload):
    _, result = _smoke(workload, 1)
    io = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("trace_io.")}
    if workload == "cli_fgn_2p17":
        assert io["trace_io.bytes_read"] > 0 and io["trace_io.read_trace_s"] > 0
    else:
        assert not any(io.values()), io


def test_one_command_runs_every_workload():
    out = _run("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] == len(WORKLOADS)
    assert set(result["metrics"]) == {f"{w}.{m['name']}" for w in WORKLOADS
                                      for m in SPEC["end_to_end"]}


def test_without_sources_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
