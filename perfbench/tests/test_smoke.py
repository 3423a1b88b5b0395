"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/tests -q

Every workload must print, as its last line, a result whose metrics are
exactly the ones BENCHMARK.json names for the run's mode, and must
refuse to run where the program's sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: result_of(run_bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_reported(workload):
    result = result_of(run_bench(workload, 0))
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_reported(workload, traced):
    result = traced[workload]
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_conv_counts_match_complexity_report(traced):
    sys.path.insert(0, str(ROOT / "src"))
    from mlnpose import build_mln, complexity_report, default_skeleton

    report = complexity_report(build_mln(default_skeleton()), (3, 64, 64))
    convs = [row for row in report.per_layer if row["kind"] == "conv"]
    bias_adds = sum(math.prod(row["out_shape"]) for row in convs)
    metrics = {k: v["value"] for k, v in traced["image_to_people"]["metrics"].items()}
    assert metrics["tensor_ops.conv2d.calls"] == len(convs) == 92
    assert metrics["tensor_ops.conv2d.macs"] == report.total_flops_mac1 - bias_adds
    for name in ("scene_to_ap", "crowd_grouping"):
        metrics = {k: v["value"] for k, v in traced[name]["metrics"].items()}
        assert metrics["tensor_ops.conv2d.calls"] == 0
        assert metrics["decoder.candidate_pairs"] > 0
        assert metrics["evalkit.oks.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
