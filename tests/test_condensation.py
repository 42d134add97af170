"""Static condensation of the interior DOFs: every solve runs on the
skeleton (free vertex and edge DOFs) and recovers the interior DOFs per
class.  The oracle is the full reduced system of conftest.reduced_system,
assembled without condensation and solved by SuperLU."""

import functools
import threading

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import element_classes, reduced_system, shape_regular_triangles

from hctvem import checks, classic_vem, pipeline, sf_vem, solvers
from hctvem.checks import TRI
from hctvem.cli import main
from hctvem.classic_vem import (DOF_MODES, ClassicElementClass,
                                EnrichedElementClass, solve_classic_vem,
                                solve_enriched_vem)
from hctvem.dofmap import DofMap
from hctvem.experiments import ExperimentConfig, run_experiment
from hctvem.mesh import FAMILIES, _build_topology, generate_mesh
from hctvem.problems import get_solution
from hctvem.sf_vem import SfElementClass, solve_sf_vem

PROB = get_solution("sinsin")


def solve(method, family, k, level, solver="direct", load_rule="interp",
          kappa=False):
    """A level solved by the program, with the element classes that
    conftest.element_classes builds for the method."""
    mesh = generate_mesh(family, level)
    if method == "sf-hct":
        return solve_sf_vem(mesh, k, PROB, solver=solver,
                            load_rule=load_rule, kappa=kappa)
    if method == "classic":
        return solve_classic_vem(mesh, k, PROB, dof_mode="l2_normalized_x10",
                                 alpha=-1.0, solver=solver, kappa=kappa)
    return solve_enriched_vem(mesh, k, PROB, (k + 1,), solver=solver,
                              kappa=kappa)


CASES = ([("sf-hct", k, rule) for k in range(1, 7)
          for rule in pipeline.LOAD_RULES]
         + [("classic", k, "interp") for k in range(1, 5)]
         + [("enriched", 2, "interp")])


@pytest.mark.parametrize("solver", ["direct", "cg"])
@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("family", ["uniform", "irregular8"])
@pytest.mark.parametrize("method,k,load_rule", CASES)
def test_condensed_solve_matches_full_solve(method, k, load_rule, family,
                                            level, solver):
    lap_f = PROB.lap_f if load_rule == "vem" else None
    A, b, dm, _ = reduced_system(method, family, k, level,
                                 load_rule=load_rule, lap_f=lap_f)
    want = np.zeros(dm.total)
    want[:dm.n_free] = spla.splu(A).solve(b)
    got = solve(method, family, k, level, solver, load_rule).dofs
    # bound set before the run: 1e-10 relative in the max norm
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("method,k,solver", [
    ("sf-hct", 6, "cg"), ("classic", 3, "direct"), ("enriched", 2, "direct"),
])
def test_kappa_is_that_of_the_full_system(method, k, solver):
    sol = solve(method, "irregular8", k, 3, solver, kappa=True)
    A = reduced_system(method, "irregular8", k, 3)[0]
    want = solvers.estimate_condition_2(A)
    assert abs(sol.kappa - want) <= 1e-10 * want


@functools.cache
def dense_kappa(family, k, level):
    """kappa_2 of sf-hct's full reduced matrix by dense eigvalsh."""
    A = reduced_system("sf-hct", family, k, level)[0]
    eig = np.linalg.eigvalsh(A.toarray())
    return eig[-1] / eig[0]


@pytest.mark.parametrize("solver", ["direct", "cg"])
@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("family", ["uniform", "irregular8"])
@pytest.mark.parametrize("k", range(1, 7))
def test_decoupled_kappa_matches_dense_eigenvalues(k, family, level,
                                                   solver):
    # sf-hct's kappa comes from S and the K_ii spectra; bound set before
    # the run: 1e-10 relative
    sol = solve("sf-hct", family, k, level, solver, kappa=True)
    assert sol.condensation.decoupled
    want = dense_kappa(family, k, level)
    assert abs(sol.kappa - want) <= 1e-10 * want


def spy_condensation(monkeypatch):
    """Calls of Condensation.matvec and .inverse, from now on."""
    calls = {"matvec": 0, "inverse": 0}
    for name in calls:
        def counted(self, *args, _name=name,
                    _original=getattr(pipeline.Condensation, name)):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(pipeline.Condensation, name, counted)
    return calls


DECOUPLING_CASES = (
    [("sf-hct", k, None, None) for k in range(1, 7)]
    + [("classic", k, mode, alpha) for k in range(1, 5) for mode in DOF_MODES
       for alpha in (0.0, -1.0, -2.0)]
    + [("enriched", k, mode, None) for k in range(1, 5)
       for mode in DOF_MODES])


def level_classes(mesh, method, k, mode, alpha):
    """The classes of one method on mesh, classic and enriched in the DOF
    mode given (enriched with the harmonic degree k + 1)."""
    if method == "sf-hct":
        return element_classes(method, mesh, k)
    if method == "classic":
        return pipeline.build_classes(
            mesh, lambda lv: ClassicElementClass(k, lv, mode, alpha))
    return pipeline.build_classes(
        mesh, lambda lv: EnrichedElementClass(k, lv, (k + 1,), mode))


@pytest.mark.parametrize("method,k,mode,alpha", DECOUPLING_CASES)
def test_decoupled_exactly_for_sf_hct_and_degree_one(method, k, mode,
                                                     alpha):
    # decoupled is read off K_ib by true_entries, assembly's own cut, so
    # it says whether the assembled A couples the skeleton to the
    # interior: sf-hct's K_ib is round-off, and k = 1 has no interior block
    for family in FAMILIES:
        for level in (1, 2, 3):
            mesh = generate_mesh(family, level)
            dm = DofMap(mesh, k)
            classes = level_classes(mesh, method, k, mode, alpha)
            cond = pipeline.Condensation(dm, classes)
            assert cond.decoupled == (method == "sf-hct" or k == 1), \
                (family, level)
            A, n_s = pipeline.assemble_matrix(dm, classes), dm.n_skeleton
            assert (A[:n_s, n_s:].nnz == 0) == cond.decoupled, \
                (family, level)


@pytest.mark.parametrize("solver", ["direct", "cg"])
@pytest.mark.parametrize("method,k", [("sf-hct", 1), ("sf-hct", 3),
                                      ("sf-hct", 6), ("classic", 1),
                                      ("classic", 3), ("enriched", 1),
                                      ("enriched", 2)])
def test_only_coupled_methods_take_kappa_through_the_full_system(
        method, k, solver, monkeypatch):
    # a decoupled level (sf-hct, or k = 1, which has no interior block)
    # takes kappa from the skeleton on this thread; a coupled one runs
    # lambda_max on a second thread, by products with the full system
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    calls = spy_condensation(monkeypatch)
    sol = solve(method, "irregular8", k, 2, solver, kappa=True)
    assert sol.condensation.decoupled == (method == "sf-hct" or k == 1)
    if sol.condensation.decoupled:
        assert calls == {"matvec": 0, "inverse": 0} and started == []
    else:
        assert calls["matvec"] > 0 and calls["inverse"] == 1
        assert len(started) == 1
    # bound set before the run: 1e-10 relative
    want = solvers.estimate_condition_2(sol.matrix)
    assert sol.kappa > 1 and abs(sol.kappa - want) <= 1e-10 * want


@pytest.mark.parametrize("method,k", [("sf-hct", 1), ("sf-hct", 3),
                                      ("classic", 3), ("enriched", 2)])
def test_full_system_read_bit_for_bit(method, k):
    sol = solve(method, "irregular8", k, 3)
    A, b, _, _ = reduced_system(method, "irregular8", k, 3)
    M = sol.matrix
    assert M.format == "csc" and M.shape == A.shape
    for got, want in ((M.indptr, A.indptr), (M.indices, A.indices),
                      (M.data, A.data), (sol.load, b)):
        assert got.tobytes() == want.tobytes()
    assert sol.matrix is M


def count_full_assemblies(monkeypatch):
    """Calls of pipeline.assemble_matrix without skeleton, from now on."""
    calls = []
    assemble_matrix = pipeline.assemble_matrix

    def counted(dm, classes, skeleton=False):
        if not skeleton:
            calls.append(dm.k)
        return assemble_matrix(dm, classes, skeleton)

    monkeypatch.setattr(pipeline, "assemble_matrix", counted)
    return calls


@pytest.mark.parametrize("kappa", [False, True])
def test_run_assembles_no_full_matrix(kappa, monkeypatch):
    # kappa's lambda_max multiplies by the full system element by element
    calls = count_full_assemblies(monkeypatch)
    report = run_experiment(ExperimentConfig(k=3, mesh="irregular8",
                                             levels=(1, 3), kappa=kappa))
    assert calls == []
    assert [r.dofs for r in report.rows] == [
        reduced_system("sf-hct", "irregular8", 3, level)[0].shape[0]
        for level in (1, 2, 3)]


def test_dump_matrix_assembles_the_full_matrix_once_per_level(
        tmp_path, monkeypatch):
    calls = count_full_assemblies(monkeypatch)
    run_experiment(ExperimentConfig(k=2, levels=(2, 3),
                                    dump_matrix=str(tmp_path / "A")))
    assert calls == [2, 2]


def test_degree_one_has_nothing_to_condense(monkeypatch):
    # k = 1 takes the condensed path of every degree: its interior blocks
    # are empty, so condensing changes no bit, and kappa is the full
    # system's
    seen = []
    solve_spd = solvers.solve_spd

    def spy(*args, **kwargs):
        seen.append(kwargs.get("condensed"))
        return solve_spd(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_spd", spy)
    for method in ("sf-hct", "classic"):
        seen.clear()
        sol = solve(method, "irregular8", 1, 3, kappa=True)
        cond = sol.condensation
        assert len(seen) == 1 and seen[0] is cond
        assert cond.n_skeleton == cond.shape[0]
        r, x = np.random.default_rng(1).normal(size=(2, cond.shape[0]))
        assert cond.condense(r).tobytes() == r.tobytes()
        assert cond.back_substitute(x, r).tobytes() == x.tobytes()
        for ec, _ in sol.classes:
            assert ec.condensed[2].tobytes() == ec.K_loc.tobytes()
        # bound set before the run: 1e-13 relative
        want = solvers.estimate_condition_2(sol.matrix)
        assert abs(sol.kappa - want) <= 1e-13 * want, method


@pytest.mark.parametrize("family", ["uniform", "irregular8"])
@pytest.mark.parametrize("method", ["sf-hct", "classic", "enriched"])
@pytest.mark.parametrize("k", range(1, 5))
def test_matvec_is_the_full_matrix_product(method, k, family):
    A, _, dm, classes = reduced_system(method, family, k, 3)
    x = np.random.default_rng(k).normal(size=A.shape[0])
    want = A @ x
    got = pipeline.Condensation(dm, classes).matvec(x)
    # bound set before the run: 1e-14 relative in the max norm
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_class_slots_share_one_array():
    # matvec gathers and scatters over all elements at once, while
    # condense and back_substitute read each class's rows of that array
    _, _, dm, classes = reduced_system("sf-hct", "irregular8", 3, 3)
    cond = pipeline.Condensation(dm, classes)
    rows = 0
    for (_, idx), slots in zip(classes, cond._slots):
        assert np.shares_memory(slots, cond._all_slots)
        assert np.array_equal(slots,
                              np.minimum(dm.element_dofs[idx], dm.n_free))
        rows += len(slots)
    assert rows == len(cond._all_slots) == dm.mesh.num_triangles


@pytest.mark.parametrize("k", range(2, 7))
def test_condensed_operators(k):
    ec = SfElementClass(k, TRI)
    chol, X, S = ec.condensed
    nb, K = ec.n_boundary, ec.K_loc
    assert np.allclose(chol @ chol.T, K[nb:, nb:], rtol=0,
                       atol=1e-13 * np.abs(K).max())
    # S_loc is the energy of the interior-minimizing extension: for u_b,
    # (u_b, -X u_b) meets K_loc in u_b^T S_loc u_b
    u = np.random.default_rng(k).normal(size=nb)
    full = np.concatenate([u, -X @ u])
    assert full @ K @ full == pytest.approx(u @ S @ u, rel=1e-10)
    assert np.array_equal(S, S.T)
    # the boundary columns of the projection are discrete-harmonic in the
    # HCT space, so energy-orthogonal to its bubbles, which span the
    # interior columns: K_ib vanishes up to round-off (|X| reached 3.7e-13
    # at k = 6), and S_loc is K_bb
    assert np.abs(X).max() <= 1e-11
    assert np.allclose(S, K[:nb, :nb], rtol=0, atol=1e-12 * np.abs(K).max())


@pytest.mark.parametrize("k", range(1, 7))
def test_scaled_classes_share_the_condensation(k):
    # the check also holds S_loc to a fresh build's bits
    for tri in shape_regular_triangles(50 + k, n=5):
        assert checks.scale_free_class(k, tri - tri[0], 2) == []


def doctored(k, verts, mode="standard", alpha=0.0):
    """A classic class whose interior block is indefinite."""
    ec = ClassicElementClass(k, verts, mode, alpha)
    K = ec.K_loc.copy()
    nb = ec.n_boundary
    K[nb, nb] = -K[nb, nb]
    ec.K_loc = K
    return ec


def test_indefinite_interior_block_raises():
    ec = doctored(3, TRI)
    with pytest.raises(solvers.NotSpdError) as info:
        ec.condensed
    assert "degree-3" in str(info.value)
    assert str(TRI.tolist()) in str(info.value)


def test_indefinite_interior_block_stops_the_solve(monkeypatch):
    monkeypatch.setattr(classic_vem, "ClassicElementClass", doctored)
    monkeypatch.setattr(classic_vem, "_CLASSIC_CACHE", {})
    with pytest.raises(solvers.NotSpdError, match="degree-2"):
        solve_classic_vem(generate_mesh("uniform", 2), 2, PROB)


def test_verify_catches_a_wrong_back_substitution(monkeypatch, capsys):
    back_substitute = pipeline.Condensation.back_substitute

    def off(self, x, r):
        u = back_substitute(self, x, r)
        return u + 1e-6 * np.abs(u).max() * (np.arange(len(u)) >= len(x))

    monkeypatch.setattr(pipeline.Condensation, "back_substitute", off)
    assert main(["verify"]) == 1
    assert "condensed solve" in capsys.readouterr().err


def test_verify_catches_a_coupled_interior_block(monkeypatch, capsys):
    K_loc = SfElementClass.K_loc

    def coupled(self):
        K = K_loc.func(self).copy()
        nb = self.n_boundary
        K[nb:, :nb] += 1e-10 * np.abs(K).max()
        K[:nb, nb:] = K[nb:, :nb].T
        return K

    monkeypatch.setattr(SfElementClass, "K_loc", property(coupled))
    # the classes built meanwhile derive their condensation from it
    monkeypatch.setattr(sf_vem, "_GLOBAL_CACHE", {})
    assert main(["verify"]) == 1
    assert "interior block couples" in capsys.readouterr().err
    # assembly keeps the planted entries, so kappa takes the level whole
    sol = solve_sf_vem(generate_mesh("irregular8", 2), 3, PROB)
    assert not sol.condensation.decoupled


def test_verify_catches_a_wrong_kappa(monkeypatch, capsys):
    monkeypatch.setattr(pipeline.Condensation, "interior_spectrum",
                        (1e-9, 1.0))
    assert main(["verify"]) == 1
    assert "level-2 kappa" in capsys.readouterr().err


@pytest.mark.parametrize("k", range(2, 7))
def test_skeleton_cg_iterations_flat_in_h(k, monkeypatch):
    # two-level CG on the skeleton, with P restricted to its rows: the
    # same bound as on the full system (tests/test_solvers.py), measured
    # at 27..38 iterations here
    iterations = []
    solve_cg = solvers.solve_cg

    def spy(*args, **kwargs):
        x, it = solve_cg(*args, **kwargs)
        iterations.append(it)
        return x, it

    monkeypatch.setattr(solvers, "solve_cg", spy)
    for level in (2, 3, 4):
        solve("sf-hct", "irregular8", k, level, solver="cg")
    assert len(iterations) == 3 and max(iterations) <= 40, iterations


@pytest.mark.parametrize("solver", ["direct", "cg"])
def test_single_triangle_has_an_empty_skeleton(solver):
    # every vertex and edge DOF is a Dirichlet DOF: the solve is the
    # back-substitution alone, and kappa is still that of the full system
    mesh = _build_topology(TRI, np.array([[0, 1, 2]]))
    sol = solve_sf_vem(mesh, 4, PROB, solver=solver, kappa=True)
    assert sol.condensation.n_skeleton == 0
    A = sol.matrix.toarray()
    assert A.shape == (6, 6)
    assert np.allclose(sol.dofs[:sol.dofmap.n_free],
                       solvers.solve_dense_cholesky(A, sol.load),
                       rtol=1e-12, atol=0)
    eig = np.linalg.eigvalsh(A)
    assert sol.kappa == pytest.approx(eig[-1] / eig[0], rel=1e-10)
