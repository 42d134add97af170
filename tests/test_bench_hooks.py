"""The benchmark's tracer wraps program attributes by name (see
bench/tracer.py).  These checks catch a rename, a merge or an alias of a
traced name in tier-1 time, without running a workload."""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import COUNTERS, ENTRY_POINTS, _resolve  # noqa: E402

from hctvem import classic_vem, pipeline, sf_vem, solvers  # noqa: E402
from hctvem.experiments import (ExperimentConfig,  # noqa: E402
                                run_experiment)
from hctvem.mesh import generate_mesh  # noqa: E402
from hctvem.problems import get_solution  # noqa: E402


@pytest.mark.parametrize("path", sorted(ENTRY_POINTS))
def test_entry_point_resolves_to_a_callable(path):
    owner, attr = _resolve(path)
    assert callable(getattr(owner, attr))


def test_no_two_entry_points_share_a_slot():
    # two names for one (owner, attribute) slot would be wrapped twice,
    # and the hook would fire for both methods
    slots = {}
    for path in ENTRY_POINTS:
        owner, attr = _resolve(path)
        slot = (id(owner), attr)
        assert slot not in slots, f"{path} and {slots[slot]} share a slot"
        slots[slot] = path


@pytest.mark.parametrize("module,solve", [
    (sf_vem, lambda mesh, k, prob: sf_vem.solve_sf_vem(mesh, k, prob)),
    (classic_vem,
     lambda mesh, k, prob: classic_vem.solve_classic_vem(mesh, k, prob)),
], ids=["sf-hct", "classic"])
@pytest.mark.parametrize("k", [1, 3])
def test_counters_keep_their_meaning(module, solve, k, monkeypatch):
    # dofmap.dofs counts every DOF, the Dirichlet ones too, and
    # assemble.nnz is the skeleton matrix that the solver gets
    mesh = generate_mesh("irregular8", 2)
    dm = module.DofMap(mesh, k)
    name = module.__name__.rpartition(".")[2]
    counted = COUNTERS[f"{name}.DofMap"](None, dm)
    assert counted["dofmap.dofs"] == dm.total == (
        mesh.num_vertices + (k - 1) * mesh.num_edges
        + k * (k - 1) // 2 * mesh.num_triangles)
    received = []
    solve_spd = solvers.solve_spd

    def spy(*args, **kwargs):
        received.append(args[0])
        return solve_spd(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_spd", spy)
    sol = solve(mesh, k, get_solution("sinsin"))
    S = pipeline.assemble_matrix(dm, sol.classes, skeleton=True)
    assert S.shape == (dm.n_skeleton, dm.n_skeleton)
    [A] = received
    assert COUNTERS["solvers.solve_spd"]((A,), None) \
        == {"assemble.nnz": S.nnz}


def test_cache_names_read_by_the_worker_exist():
    for cache in (sf_vem._GLOBAL_CACHE, classic_vem._CLASSIC_CACHE,
                  classic_vem._ENRICHED_CACHE):
        assert isinstance(cache, dict)


@pytest.mark.parametrize("study,threaded", [
    (dict(method="sf-hct", k=3, levels=(1, 3), solver="cg"), False),
    (dict(method="classic", k=3, levels=(2, 3), dof_mode="l2_normalized_x10",
          alpha=-1.0), True),
], ids=["sf-hct-cg", "classic-direct"])
def test_kappa_run_calls_entry_points_on_the_main_thread(study, threaded,
                                                         monkeypatch):
    # the tracer keeps one span stack for the process: a wrapped name
    # called from kappa's lambda_max thread would corrupt it.  sf-hct's
    # kappa runs both Lanczos on the skeleton matrix on this thread
    threads = {}

    def record(path, original):
        def wrapper(*args, **kwargs):
            threads.setdefault(path, []).append(threading.current_thread())
            return original(*args, **kwargs)
        return wrapper

    for path in list(ENTRY_POINTS) + ["solvers._lanczos_extreme"]:
        owner, attr = _resolve(path)
        monkeypatch.setattr(owner, attr, record(path, getattr(owner, attr)))
    report = run_experiment(ExperimentConfig(mesh="irregular8", kappa=True,
                                             **study))
    assert all(r.kappa > 1 for r in report.rows)
    main = threading.main_thread()
    assert len(threads["solvers.estimate_condition_2"]) == len(report.rows)
    for path, seen in threads.items():
        if path != "solvers._lanczos_extreme":
            assert all(t is main for t in seen), path
    lanczos = threads["solvers._lanczos_extreme"]
    if threaded:
        # lambda_max on the second thread, lambda_min on this one, per
        # level
        assert sum(t is not main for t in lanczos) == len(report.rows)
        assert sum(t is main for t in lanczos) == len(report.rows)
    else:
        assert len(lanczos) == 2 * len(report.rows)
        assert all(t is main for t in lanczos)
