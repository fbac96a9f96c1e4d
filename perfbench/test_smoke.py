"""Smoke test: each workload at a tiny size, untraced and traced, emits
every metric named in BENCHMARK.json with its unit, and nothing fails.

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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, check=False, cwd=ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    done = run("--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace:  # decode steps run on the caption workloads only
        steps = result["metrics"]["decoder.step_calls"]["value"]
        assert (steps > 0) == workload.startswith("caption")
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_outputs():
    outputs = []
    for _ in range(2):
        done = run("--workload", "train_b12", "--seed", "9", "--seconds", "0.5", "--smoke")
        outputs.append([ln for ln in done.stdout.splitlines() if ln.startswith("outputs ")])
    assert outputs[0] and outputs[0] == outputs[1]


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench = bare / "perfbench"
    bench.mkdir(parents=True)
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    try:
        done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "train_b12",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=180, check=False,
                              cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert not done.stdout.strip()
