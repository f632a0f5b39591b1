"""Smoke test of the benchmark: every workload at tiny size, end to end.

Runs ``run.py --workload all --smoke`` untraced and traced, and checks that
the benchmark refuses to run where the program is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import GATED, WORKLOADS

BENCH = Path(__file__).resolve().parent


def _bench(*args, cwd=None):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd or BENCH.parent,
                          capture_output=True, text=True, timeout=300)


def _smoke(trace: str) -> dict:
    proc = _bench("--workload", "all", "--smoke", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == set(WORKLOADS)
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, (name, proc.stdout)
        assert result["attempted"] >= 1
    return results


def test_smoke_untraced_reports_every_end_to_end_metric():
    for result in _smoke("0").values():
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_reports_every_per_layer_metric():
    results = _smoke("1")
    for result in results.values():
        assert set(result["metrics"]) == set(run.PER_LAYER)
    certify = results["certify"]["metrics"]
    assert certify["harness.check_epsilon_nash_s"]["value"] > 0
    assert results["dense"]["metrics"]["channel.advance_calls"]["value"] > 0


def test_benchmark_json_names_what_run_py_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(GATED)
    assert set(GATED) <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit(name) for name in run.PER_LAYER}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "reference", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
