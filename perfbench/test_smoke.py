"""Smoke test of the benchmark itself: every workload at tiny size through
the oracle path, traced and untraced, on a fixed seed.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        body = result["metrics"][metric["name"]]
        assert body["unit"] == metric["unit"], metric["name"]
        assert isinstance(body["value"], (int, float)) and math.isfinite(body["value"])
        assert any(line.startswith(f"{metric['name']} ") and f" {metric['unit']}" in line
                   for line in lines[:-1]), metric["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    elif workload == "exhaustive":
        # the untimed README-example probe runs with the tracer paused
        assert result["metrics"]["cli.calls"]["value"] == 0
        assert result["metrics"]["verify.checks"]["value"] == 0


def test_layer_map_covers_every_layer_metric():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    mapped = set()
    for entry in layer_map:
        mapped.update(entry["layer_metrics"])
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(WORKLOADS)
    assert per_layer - {"trace.overhead"} == mapped


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
