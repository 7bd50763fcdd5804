"""Tests of the benchmark itself, at smoke size (a few seconds per workload).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_smoke_run(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run(workload):
    res = _result(_bench("--workload", workload, "--seed", "4", "--seconds", "1",
                         "--trace", "1", "--smoke"))
    assert res["correct"] is True and res["attempted"] == 3
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layers = {k: m["value"] for k, m in res["metrics"].items()}
    assert layers["spectral.solve_calls"] >= 1 and layers["fem.assemble_calls"] >= 2
    trace = json.loads((ROOT / ".bench_work" / f"{workload}-seed4" / "trace.json").read_text())
    assert trace["absent"] == []
    ids = {s["id"] for s in trace["spans"]}
    assert all(s["parent"] in ids for s in trace["spans"] if s["parent"] is not None)


def test_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", workloads.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded(workload):
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    assert workloads.generate(workload, 5) != workloads.generate(workload, 6)


def _cluster(rellich, fd, width=0.0, route=1e-15):
    return {"indices": list(range(1, len(fd) + 1)), "lambda_bar": 10.0, "width": width,
            "route_discrepancy": route, "slopes_rellich": rellich, "slopes_fd": fd}


def test_checks_compare_basis_independent_quantities():
    assert checks.check_clusters([_cluster([2.0], [2.0 + 1e-8])]) == []
    assert checks.check_clusters([_cluster([2.0], [2.1])])
    assert checks.check_clusters([_cluster([2.0], [2.0], route=1e-9)])
    # a multiple cluster is judged by its trace, not branch by branch
    assert checks.check_clusters([_cluster([-1.0, 3.0], [0.0, 2.0])]) == []
    assert checks.check_clusters([_cluster([-1.0, 3.0], [0.0, 2.1])])
    assert checks.branch_mismatches([_cluster([-1.0, 3.0], [0.0, 2.0], width=0.1)]) == 1
    assert checks.branch_mismatches([_cluster([-1.0, 3.0], [0.0, 2.0], width=1.0)]) == 0


def test_study_check_needs_decreasing_gap():
    rows = [{"n": n, "route_discrepancy": 0.0, "surface_volume_gap": g, "eigenvalues": [1.0]}
            for n, g in ((2, 0.3), (3, 0.2), (4, 0.25))]
    assert checks.check_output("study", {"levels": rows})
    assert checks.check_output("study", {"levels": rows[:2]}) == []


def test_missing_function_is_recorded_as_absent():
    tracer = tracing.Tracer()
    tracer.install([("harness", "no_such_function", "harness.none", None),
                    ("no_such_module", "f", "x.f", None)])
    tracer.restore()
    assert tracer.absent == ["harness.no_such_function", "no_such_module.f"]
