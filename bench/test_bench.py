"""Smoke test of the benchmark itself, at tiny sizes.

Run: python3 -m pytest -q bench/test_bench.py
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run_cli(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_finite_with_its_unit(workload, trace):
    proc = _run_cli(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"])
    if not trace:
        assert re.search(r"^  failed_share +0 ", proc.stdout, re.MULTILINE)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_self_times_cover_the_traced_wall_and_counts_repeat(workload):
    first = run.run(workload, seed=0, seconds=1, trace=True, size="tiny")
    trace = first["trace"]
    assert trace["min_self_s"] >= -1e-9
    # self times telescope to the root span; only the root wrapper's own cost is outside it
    outside = trace["traced_wall_s"] - trace["self_sum_s"]
    assert 0.0 <= outside <= 0.01 + 0.01 * trace["traced_wall_s"]

    second = run.run(workload, seed=0, seconds=1, trace=True, size="tiny")
    counts = [s["name"] for s in SPEC["per_layer"] if s["unit"] == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def _reference(workload: str) -> dict:
    with open(os.path.join(BENCH, "references", f"tiny_{workload}.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)["inputs"]
    return inputs[min(inputs, key=int)]


def _failed(workload: str, outputs: dict, exit_code: int = 0) -> int:
    return run.failed_items(workload, {"exit_code": exit_code}, outputs, _reference(workload))[1]


def _edit(outputs: dict, name: str, old: str, new: str) -> dict:
    assert old in outputs[name]
    return dict(outputs, **{name: outputs[name].replace(old, new, 1)})


def test_the_correctness_gate_can_fail():
    table = _reference("table_study")
    attempted = len(table["replications.csv"].splitlines()) - 1
    assert _failed("table_study", table) == 0
    assert _failed("table_study", table, exit_code=1) == attempted
    row = table["replications.csv"].splitlines()[1]
    assert _failed("table_study", _edit(table, "replications.csv", row, row[:-1] + "0")) == 1
    value = table["table1.csv"].splitlines()[1].split(",")[1]
    bumped = f"{float(value) + 0.001:.5f}"
    assert _failed("table_study", _edit(table, "table1.csv", value, bumped)) == attempted

    deviation = _reference("deviation_coverage")
    assert _failed("deviation_coverage", deviation) == 0
    assert _failed("deviation_coverage", _edit(deviation, "stdout.txt", "holding_frequency=", "holding_frequency=9")) >= 1

    checks = _reference("identity_checks")
    assert _failed("identity_checks", checks) == 0
    last = checks["checks.csv"].splitlines()[-1]
    assert _failed("identity_checks", _edit(checks, "checks.csv", last, last[:-1] + "0")) == 1


def test_exits_nonzero_without_the_program():
    os.makedirs(run.BUILD, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.BUILD)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_cli(bare, "table_study", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
