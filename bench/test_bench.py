"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py -q

The hook-coverage test fails when an entry point the tracer wraps is
renamed, merged or no longer called where it used to be, instead of the
layer silently reading 0 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from tracer import ENTRY_POINTS, entry_calls, layer_metrics  # noqa: E402
from workloads import WORKLOADS, planned_levels  # noqa: E402

SF = {"sf3-direct", "p1-uniform-sweep", "sf6-cg-kappa"}
ALL = set(WORKLOADS)

# entry point -> the workloads on which it must fire (and no others)
FIRES_ON = {
    "experiments.run_experiment": ALL,
    "experiments.generate_mesh": ALL,
    "sf_vem._class_cache_build": SF,
    "classic_vem._build_classes": {"baselines"},
    "sf_vem.DofMap": SF,
    "classic_vem.DofMap": {"baselines"},
    "sf_vem._assemble": SF,
    "classic_vem._assemble_and_solve": {"baselines"},
    "experiments.solve_sf_vem": SF,
    "solvers.solve_spd": ALL,
    "solvers.solve_cg": {"sf6-cg-kappa"},
    "solvers.spla.splu": {"sf3-direct", "p1-uniform-sweep", "baselines"},
    "solvers.estimate_condition_2": {"sf6-cg-kappa", "baselines"},
    "sf_vem.SfSolution.reference_field": SF,
    "classic_vem.ClassicSolution.reference_field": {"baselines"},
    "sf_vem.SfField.error_norms": SF,
    "classic_vem.PolyField.error_norms": {"baselines"},
}


def test_table_names_every_entry_point():
    assert set(FIRES_ON) == set(ENTRY_POINTS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_hook_coverage_and_traced_errors(workload):
    traced = run.spawn(workload, traced=True, timeout=170)
    plain = run.spawn(workload, traced=False, timeout=170)
    assert traced is not None and plain is not None
    assert not traced["errors"] and not plain["errors"]

    calls = entry_calls(traced["trace"].values())
    fired = {path for path, n in calls.items() if n > 0}
    expected = {path for path, on in FIRES_ON.items() if workload in on}
    assert fired == expected
    n_levels = len(planned_levels(workload))
    assert calls["experiments.generate_mesh"] == n_levels
    assert calls["solvers.solve_spd"] == n_levels

    layers = layer_metrics(traced["trace"].values())
    assert all(v >= 0 for v in layers.values())
    # the result line's layer times split the traced run between them
    times = [layers[m] for m, unit in run.PER_LAYER.items()
             if unit == "s" and m in layers]
    assert all(t > 0 for t in times)
    assert sum(times) <= traced["wall_s"]
    assert layers["mesh.triangles"] > 0 and layers["dofmap.dofs"] > 0

    # tracing must not change a single bit of the results
    assert traced["levels"] == plain["levels"]
    reference = json.loads((BENCH / "reference.json").read_text())[workload]
    assert run.failed_levels(workload, plain["levels"], reference) == []


def _sf6_levels(**overrides):
    from hctvem.experiments import ExperimentConfig, run_experiment
    cfg = dict(WORKLOADS["sf6-cg-kappa"][0], levels=(1, 3),
               kappa=False, **overrides)
    report = run_experiment(ExperimentConfig(**cfg))
    return [{"method": "sf-hct", "level": r.level, "dofs": r.dofs,
             "l2": r.l2, "h1": r.h1, "kappa": None} for r in report.rows]


def test_gate_accepts_another_solver_and_rejects_an_unconverged_one():
    reference = {(r["method"], r["level"]): dict(r, kappa=None) for r in
                 json.loads((BENCH / "reference.json").read_text())
                 ["sf6-cg-kappa"]}
    direct = _sf6_levels(solver="direct")
    assert all(run.level_ok(r, reference["sf-hct", r["level"]])
               for r in direct)
    loose = _sf6_levels(tol=1e-6)
    assert not any(run.level_ok(r, reference["sf-hct", r["level"]])
                   for r in loose)


def test_missing_level_fails():
    reference = json.loads((BENCH / "reference.json").read_text())
    levels = [dict(r) for r in reference["p1-uniform-sweep"]]
    dropped = levels.pop()
    assert run.failed_levels("p1-uniform-sweep", levels,
                             reference["p1-uniform-sweep"]) == \
        [(dropped["method"], dropped["level"])]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER


def test_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sf3-direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_SAMPLES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        run.END_TO_END
    assert lines[0].endswith(f"{run.MIN_SAMPLES} untraced + 0 traced samples")
    env = json.loads(lines[1].removeprefix("environment "))
    assert env["numpy"] and env["blas_threads"] == run.BLAS_THREADS


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sf3-direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
