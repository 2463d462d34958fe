"""Smoke test of the end-to-end benchmark (shrunken workloads).

Not part of the tier-1 suite; run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    script = root / HERE.relative_to(ROOT) / "run.py"
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=root, capture_output=True,
        text=True, timeout=900,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke() -> dict:
    proc = run_bench("--seed", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return last_json(proc)


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    assert smoke["correct"] and smoke["failed"] == 0
    assert smoke["attempted"] > 0
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    for workload in SPEC["workloads"]:
        for m in declared:
            got = smoke["metrics"][f"{workload['name']}/{m['name']}"]
            assert got["unit"] == m["unit"], (workload["name"], m["name"])
            assert isinstance(got["value"], (int, float))
    assert len(smoke["metrics"]) == len(SPEC["workloads"]) * len(declared)


def test_end_to_end_metrics_are_never_zero(smoke):
    for workload in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            assert smoke["metrics"][f"{workload['name']}/{m['name']}"]["value"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_workload_prints_the_driver_result(trace):
    proc = run_bench("--workload", "resident-1024", "--seed", "3",
                     "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "resident-1024", "--seed", "0",
                     "--seconds", "1", "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
