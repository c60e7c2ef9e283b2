"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Not part of the package's test suite (pyproject's testpaths); the smoke
run takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import CheckFailed, build_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_results():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    details, results = lines[0::2], lines[1::2]
    return [(d["workload"], "cli.op_ms_per_op" in r["metrics"], d, r) for d, r in zip(details, results)]


def test_smoke_runs_every_workload_untraced_and_traced(smoke_results):
    assert sorted((w, t) for w, t, _, _ in smoke_results) == sorted(
        (w, t) for w in SPEC["workloads"] for t in (False, True))
    for _, _, details, result in smoke_results:
        assert result["correct"] and result["failed"] == 0, details["failures"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_metric_names_match_benchmark_json(smoke_results):
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for _, traced, _, result in smoke_results:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == (layers if traced else end_to_end)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPEC["workloads"])


def test_traced_counts_and_self_times(smoke_results):
    lc_calls = {"complement-64": 6, "compare-32": 6, "verify-14q": 12}
    for workload, traced, details, result in smoke_results:
        if not traced:
            continue
        m = {name: v["value"] for name, v in result["metrics"].items()}
        assert m["switching.measurements_per_op"] == 2
        assert m["graph.local_complement.calls_per_op"] == lc_calls[workload]
        assert m["oracle.branches_per_op"] == (4 if workload == "verify-14q" else 0)
        if workload != "compare-32":
            assert m["routing.find_path.calls_per_op"] == 0
        assert details["spans_nested"] and not details["unwrapped"]
        assert details["self_sum_ms_per_op"] == pytest.approx(m["cli.op_ms_per_op"], rel=1e-9)
        assert m["trace.overhead_ratio"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-14q", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _ops(workload, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    return build_ops(workload, SPEC["workloads"][workload], 3, True, tmp_path, out), out


def test_complement_check_rejects_the_input_graph(tmp_path):
    ops, out = _ops("complement-64", tmp_path)
    scenario = json.loads(Path(ops[0].argv[2]).read_text())
    (out / "result_graph.json").write_text(json.dumps({
        "n1": 4, "n2": 4, "edges": scenario["inter_links"], "supers": {}, "super_edges": []}))
    (out / "summary.json").write_text(json.dumps({"measurements": 2}))
    with pytest.raises(CheckFailed, match="reference complement"):
        ops[0].check(out)


def test_compare_check_rejects_a_wrong_swap_count(tmp_path):
    ops, out = _ops("compare-32", tmp_path)
    subprocess.run([sys.executable, "-m", "qlanroute.cli", *ops[0].argv], cwd=ROOT, check=True,
                   capture_output=True, env={"PYTHONPATH": str(ROOT / "src")})
    ops[0].check(out)
    report = json.loads((out / "comparison.json").read_text())
    report["tqr"]["swap_count"] += 1
    (out / "comparison.json").write_text(json.dumps(report))
    with pytest.raises(CheckFailed, match="swap_count"):
        ops[0].check(out)


def test_verify_check_rejects_an_accepted_corruption(tmp_path):
    ops, out = _ops("verify-14q", tmp_path)
    corrupt = next(op for op in ops if "--corrupt" in op.argv)
    (out / "verification.json").write_text(json.dumps({"passed": True}))
    with pytest.raises(CheckFailed, match="corrupted"):
        corrupt.check(out)
