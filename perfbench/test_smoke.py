"""Smoke-size self-test of the benchmark.

Runs every workload at its smallest size, untraced and traced, and
checks the result line against BENCHMARK.json: the schema, every metric
name and unit, and that no statement failed.  No timing is asserted.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, *CONTRACT["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", "0.05", "--trace", str(trace),
           "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in CONTRACT["workloads"]])
def test_smoke_run_matches_contract(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_without_engine(tmp_path):
    """With only the benchmark's own files there is nothing to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in CONTRACT["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "lab_session", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
