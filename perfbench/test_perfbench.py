"""The benchmark's own test: the whole harness at tiny levels, and proof
that its accuracy checks flag a wrong solve.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _bench(workload, trace):
    proc = _run(["perfbench/run.py", "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_smoke(workload):
    result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    per_round = 9 if workload.startswith("compare") else 1
    assert result["attempted"] % per_round == 0
    if not WORKLOADS[workload].known_fault:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_accounts_for_wall_time(workload):
    result = _bench(workload, 1)
    assert result["correct"] is True
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["assembly.assemble_calls"] == 21 * len(
        WORKLOADS[workload].smoke_levels) * len(WORKLOADS[workload].schemes)
    with open(os.path.join(ROOT, ".perfbench_out", workload, "spans.json")) as fh:
        spans = json.load(fh)[0]
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    wall = next(end - start for name, start, end, parent in spans if name == "command")
    assert sum(own) == pytest.approx(wall, rel=1e-9)
    assert metrics["trace.wall_s"] > metrics["trace.untimed_s"] > 0
    assert 0 < metrics["trace.overhead_s"] < 0.01 * metrics["trace.wall_s"]


@pytest.mark.parametrize("workload,fault", [
    ("solve-wg-q1", "early-stop"),
    ("solve-dodsd-q1", "early-stop"),
    ("solve-wg-q1", "flip-inflow-sign"),
])
def test_checks_flag_a_wrong_solve(workload, fault, tmp_path):
    proc = _run(["perfbench/worker.py", "--workload", workload, "--smoke",
                 "--fault", fault, "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    (op,) = json.loads(proc.stdout.strip().splitlines()[-1])["operations"]
    assert op["failures"], op


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["perfbench/run.py", "--workload", "solve-wg-q1", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
