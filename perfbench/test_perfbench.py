"""Smoke test of the benchmark at its tiny sizes: the reported metrics match
BENCHMARK.json, the counts repeat for one seed, and the failure accounting
catches an unsafe episode."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench_run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def bench(workload: str, trace: int, seed: int = 3):
    """(detail, result) of one tiny run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, check=True)
    *_, detail, result = out.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    detail, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert detail["fingerprints_repeat"] and detail["failed_frac"] == 0.0


def _exact(result) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "1/cycle", "ratio") and name != "trace.overhead_frac"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_the_same_seed(workload):
    (first, first_result), (second, second_result) = (bench(workload, 1) for _ in range(2))
    assert first["fingerprint"] == second["fingerprint"]
    assert _exact(first_result) == _exact(second_result)
    for detail in (first, second):
        detail["per_batch_calls"] = {name: span["calls"] / detail["batches"]["traced"]
                                     for name, span in detail["spans"].items()}
    assert first["per_batch_calls"] == second["per_batch_calls"]


def test_unmonitored_adversarial_episode_counts_as_failed():
    from waynet import cli

    def failures(*flags):
        with bench_run.episode_tap(cli) as (reports, _):
            code, _ = bench_run.call_main(
                cli, ["simulate", "--controller", "adversarial", "--episodes", "1", *flags])
        return bench_run.simulate_failures(code, reports)

    assert failures("--no-monitor") == 1
    assert failures() == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
