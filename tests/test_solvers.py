import threading

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import lanczos_every_step, p1_fem_stiffness, reduced_system
from hctvem import pipeline, solvers
from hctvem.classic_vem import solve_classic_vem
from hctvem.mesh import generate_mesh
from hctvem.problems import get_solution
from hctvem.sf_vem import solve_sf_vem
from hctvem.solvers import (ConvergenceError, NotSpdError,
                            estimate_condition_2, export_matrix_market,
                            solve_cg, solve_dense_cholesky, solve_spd,
                            two_level_preconditioner)


def random_spd(n, seed=0, cond=100.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    d = np.logspace(0, np.log10(cond), n)
    return Q @ np.diag(d) @ Q.T, d


class TestCg:
    def test_matches_direct_solve(self):
        A, _ = random_spd(40, seed=1)
        b = np.arange(40, dtype=float)
        x, it = solve_cg(sp.csr_matrix(A), b, tol=1e-13)
        assert np.allclose(A @ x, b, atol=1e-9)
        assert it <= 3 * 40

    def test_jacobi_preconditioner(self):
        A, _ = random_spd(40, seed=2, cond=1e4)
        b = np.ones(40)
        x, _ = solve_cg(sp.csr_matrix(A), b, tol=1e-12,
                        preconditioner="jacobi")
        assert np.allclose(A @ x, b, atol=1e-7)

    def test_negative_curvature_detected(self):
        A = sp.diags([1.0, -1.0, 2.0])
        with pytest.raises(NotSpdError):
            solve_cg(A, np.ones(3))

    def test_nonpositive_diagonal_rejected_by_jacobi(self):
        A = sp.diags([1.0, 0.0, 2.0])
        with pytest.raises(NotSpdError):
            solve_cg(A, np.ones(3), preconditioner="jacobi")

    def test_iteration_cap_raises_convergence_error(self):
        A, _ = random_spd(50, seed=3, cond=1e8)
        with pytest.raises(ConvergenceError):
            solve_cg(sp.csr_matrix(A), np.ones(50), tol=1e-14, max_iter=3)

    def test_zero_rhs_returns_zero(self):
        A, _ = random_spd(5)
        x, it = solve_cg(sp.csr_matrix(A), np.zeros(5))
        assert it == 0
        assert np.all(x == 0)

    def test_unknown_preconditioner_rejected(self):
        A, _ = random_spd(4)
        with pytest.raises(ValueError):
            solve_cg(sp.csr_matrix(A), np.ones(4), preconditioner="ilu")


class TestDenseCholesky:
    def test_solves_spd_system(self):
        A, _ = random_spd(30, seed=4)
        b = np.ones(30)
        assert np.allclose(A @ solve_dense_cholesky(A, b), b, atol=1e-9)

    def test_accepts_sparse_input(self):
        A, _ = random_spd(10, seed=5)
        x = solve_dense_cholesky(sp.csr_matrix(A), np.ones(10))
        assert np.allclose(A @ x, np.ones(10), atol=1e-10)

    def test_indefinite_matrix_rejected(self):
        A = np.diag([1.0, -2.0, 3.0])
        with pytest.raises(NotSpdError):
            solve_dense_cholesky(A, np.ones(3))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            solve_dense_cholesky(np.eye(5001), np.ones(5001))


class TestSolveSpd:
    def test_all_methods_agree(self):
        A, d = random_spd(25, seed=6)
        As = sp.csc_matrix(A)
        b = np.linspace(0, 1, 25)
        xd, kd = solve_spd(As, b, method="direct", kappa=True)
        xc, kc = solve_spd(As, b, method="cg", tol=1e-13, kappa=True)
        xe, ke = solve_spd(As, b, method="dense", kappa=True)
        assert np.allclose(xd, xc, atol=1e-8)
        assert np.allclose(xd, xe, atol=1e-10)
        for kappa in (kd, kc, ke):
            assert kappa == pytest.approx(d[-1] / d[0], rel=1e-10)
        assert solve_spd(As, b)[1] is None

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(sp.eye(3, format="csc"), np.ones(3), method="gmres")

    def test_direct_matches_dense_cholesky_on_sf_hct_system(self):
        # irregular8 k=3 L4: 3,233 free DOFs, under the dense cap
        sol = solve_sf_vem(generate_mesh("irregular8", 4), 3,
                           get_solution("sinsin"))
        A, b = sol.matrix, sol.load
        assert A.shape[0] == 3233
        x, _ = solve_spd(A, b, method="direct")
        ref = solve_dense_cholesky(A, b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_direct_factor_fill_is_small(self, monkeypatch):
        # a symmetric minimum-degree ordering keeps (nnz(L)+nnz(U))/nnz(A)
        # near 2.7 at irregular8 k=3 L5; COLAMD gives 8.6
        fills = []
        splu = solvers.spla.splu

        def spy(A, *args, **kwargs):
            lu = splu(A, *args, **kwargs)
            fills.append((lu.L.nnz + lu.U.nnz) / A.nnz)
            return lu

        monkeypatch.setattr(solvers.spla, "splu", spy)
        solve_sf_vem(generate_mesh("irregular8", 5), 3,
                     get_solution("sinsin"))
        assert len(fills) == 1
        assert fills[0] < 4


class TestConditionEstimate:
    def test_diagonal_matrix_exact(self):
        d = np.logspace(0, 3, 50)
        A = sp.diags(np.random.default_rng(7).permutation(d)).tocsc()
        kappa = estimate_condition_2(A)
        assert kappa == pytest.approx(1e3, rel=1e-4)

    def test_dense_spd(self):
        A, d = random_spd(60, seed=8, cond=1e4)
        kappa = estimate_condition_2(A)
        assert kappa == pytest.approx(d[-1] / d[0], rel=1e-3)

    def test_one_by_one(self):
        assert estimate_condition_2(np.array([[2.0]])) == 1.0

    @pytest.mark.parametrize("value", [-2.0, 0.0])
    @pytest.mark.parametrize("form", [np.array, sp.csc_matrix])
    def test_one_by_one_not_spd_rejected(self, form, value):
        with pytest.raises(NotSpdError):
            estimate_condition_2(form(np.array([[value]])))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_condition_2(sp.csc_matrix((0, 0)))

    @pytest.mark.parametrize("form", [np.array, sp.csc_matrix])
    def test_negative_smallest_magnitude_eigenvalue_rejected(self, form):
        # lambda_min comes from the Ritz value of A^-1 largest in
        # magnitude, -1 here; its top one, 1/2, would give kappa = 1.5
        with pytest.raises(NotSpdError):
            estimate_condition_2(form(np.diag([-1.0, 2.0, 3.0])))

    def test_empty_matrix_has_no_kappa(self):
        x, kappa = solve_spd(sp.csc_matrix((0, 0)), np.zeros(0), kappa=True)
        assert x.shape == (0,) and kappa is None

    def test_unsettled_lanczos_raises(self):
        A = sp.diags(np.arange(1.0, 51.0)).tocsr()
        with pytest.raises(ConvergenceError):
            solvers._lanczos_extreme(lambda x: A @ x, 50, max_iter=5)
        # n steps span the space: the extreme Ritz value is exact
        top = solvers._lanczos_extreme(lambda x: A @ x, 50, max_iter=50)
        assert top == pytest.approx(50.0, rel=1e-12)


# assembled systems whose kappa is checked against dense eigenvalues
ORACLE_SYSTEMS = {
    "sf-hct k=2 irregular8 L3": lambda prob: solve_sf_vem(
        generate_mesh("irregular8", 3), 2, prob),
    "sf-hct k=6 irregular8 L2": lambda prob: solve_sf_vem(
        generate_mesh("irregular8", 2), 6, prob),
    "classic k=3 l2x10 alpha=-1 irregular8 L3": lambda prob:
        solve_classic_vem(generate_mesh("irregular8", 3), 3, prob,
                          dof_mode="l2_normalized_x10", alpha=-1.0),
}


@pytest.mark.parametrize("system", sorted(ORACLE_SYSTEMS))
def test_kappa_matches_dense_eigenvalues(system):
    sol = ORACLE_SYSTEMS[system](get_solution("sinsin"))
    A, b = sol.matrix, sol.load
    eig = np.linalg.eigvalsh(A.toarray())
    want = eig[-1] / eig[0]
    # the same factor as each solve's, lambda_max and lambda_min in
    # sequence on this thread; CG builds no factor, so kappa factors A
    factors = {"direct": solvers._superlu_inverse(A),
               "dense": solvers._cholesky_inverse(A), "cg": None}
    for method, inverse in factors.items():
        _, kappa = solve_spd(A, b, method=method, kappa=True)
        assert kappa == estimate_condition_2(A, inverse), method
        assert kappa == pytest.approx(want, rel=1e-8), method


def counted(A):
    """x -> A x on the CSR view of A, and the list of its calls."""
    A = solvers._csr(A)
    calls = []

    def apply(x):
        calls.append(1)
        return A @ x

    return apply, calls


def clustered_diagonal(n=2000):
    # the top 20 eigenvalues lie within 1e-4 of 1
    d = np.concatenate([np.linspace(1e-3, 0.5, n - 20),
                        1.0 - 1e-4 * np.linspace(0.0, 1.0, 20)])
    return sp.diags(np.random.default_rng(12).permutation(d)).tocsc()


class TestLanczosSchedule:
    """_lanczos_extreme checks its Ritz values only on a geometric
    schedule; conftest.lanczos_every_step keeps the every-step rule."""

    @pytest.mark.parametrize("system", sorted(ORACLE_SYSTEMS))
    def test_lambda_max_matches_every_step_rule(self, system):
        A = ORACLE_SYSTEMS[system](get_solution("sinsin")).matrix
        apply, calls = counted(A)
        got = solvers._lanczos_extreme(apply, A.shape[0])
        assert len(calls) >= 11
        want, _ = lanczos_every_step(apply, A.shape[0])
        assert abs(got - want) <= 1e-13 * want

    def test_clustered_top_matches_every_step_rule(self):
        A = clustered_diagonal()
        apply, _ = counted(A)
        got = solvers._lanczos_extreme(apply, A.shape[0])
        want, _ = lanczos_every_step(apply, A.shape[0])
        assert abs(got - want) <= 1e-13 * want
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_never_settles_before_step_11(self):
        # an isolated top eigenvalue: its Ritz value is exact long before
        # step 11, and the rule still waits for it
        d = np.r_[np.linspace(1.0, 2.0, 99), 1e3]
        apply, calls = counted(sp.diags(d).tocsc())
        assert solvers._lanczos_extreme(apply, 100) == pytest.approx(1e3)
        assert len(calls) == 11


class TestKappaThread:
    """solve_spd runs lambda_max's Lanczos on a second thread and joins
    it whatever happens on its own."""

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    def test_lambda_max_error_comes_out(self, monkeypatch):
        lanczos = solvers._lanczos_extreme

        def fail_off_main(apply, n, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise ConvergenceError("lambda_max not settled", 0)
            return lanczos(apply, n, **kwargs)

        monkeypatch.setattr(solvers, "_lanczos_extreme", fail_off_main)
        A = clustered_diagonal()
        for method in ("direct", "cg"):
            with pytest.raises(ConvergenceError, match="lambda_max"):
                solve_spd(A, np.ones(A.shape[0]), method=method, kappa=True)

    def test_cg_failure_joins_thread(self):
        A, b, _, _ = two_level_system("sf-hct", "irregular8", 3, 3)
        lam = np.linalg.eigvalsh(A.toarray())
        B = (A - 2.0 * lam[0] * sp.eye(A.shape[0])).tocsc()
        with pytest.raises(NotSpdError):
            solve_spd(B, b, method="cg", kappa=True)

    def test_singular_direct_failure_joins_thread(self):
        A = sp.diags(np.r_[np.linspace(1.0, 2.0, 2999), 0.0]).tocsc()
        with pytest.raises(RuntimeError, match="singular"):
            solve_spd(A, np.ones(3000), method="direct", kappa=True)

    def test_thread_only_with_kappa_on_a_nonempty_matrix(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def spy(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        A = clustered_diagonal(100)
        b = np.ones(100)
        for method in solvers.SOLVERS:
            solve_spd(A, b, method=method)
        solve_spd(sp.csc_matrix((0, 0)), np.zeros(0), kappa=True)
        assert started == []
        for method in solvers.SOLVERS:
            solve_spd(A, b, method=method, kappa=True)
        assert len(started) == len(solvers.SOLVERS)


def two_level_system(method, family, k, level):
    """Reduced matrix (CSR) and load, coarse space and per-element free-DOF
    index, built as pipeline.solve_reduced builds them."""
    A, b, dm, classes = reduced_system(method, family, k, level)
    return (A.tocsr(), b, pipeline.coarse_space(dm, classes),
            pipeline.free_index(dm)[dm.element_dofs])


class TestTwoLevel:
    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    @pytest.mark.parametrize("method,k", [("sf-hct", k) for k in range(1, 7)]
                             + [("classic", k) for k in range(1, 5)]
                             + [("enriched", 2)])
    def test_coarse_matrix_is_p1_stiffness(self, method, k, family):
        # the P1 hat functions lie in every method's space and each local
        # stiffness is exact on P_1, so P^T A P is the cotangent matrix
        A, _, P, _ = two_level_system(method, family, k, 3)
        F = p1_fem_stiffness(generate_mesh(family, 3))
        assert P.shape == (A.shape[0], F.shape[0])
        assert abs(P.T @ A @ P - F).max() <= 1e-12 * abs(F).max()

    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_iterations_flat_in_h_and_k(self, family, k):
        # point Jacobi needs more than 40 at 34 of these 40 points, up to
        # 1279 at k = 6 on irregular8 level 5
        for level in (2, 3, 4, 5):
            A, b, P, ed = two_level_system("sf-hct", family, k, level)
            _, it = solve_cg(A, b, tol=1e-12,
                             preconditioner=two_level_preconditioner(
                                 A, P, ed))
            assert it <= 40, (level, it)

    def test_degree_one_coarse_solve_is_exact(self):
        A, b, P, ed = two_level_system("sf-hct", "irregular8", 1, 5)
        assert P.shape == A.shape
        _, it = solve_cg(A, b, tol=1e-12,
                         preconditioner=two_level_preconditioner(A, P, ed))
        assert it <= 2

    @pytest.mark.parametrize("solve", [
        lambda mesh, solver: solve_sf_vem(
            mesh, 3, get_solution("sinsin"), solver=solver),
        lambda mesh, solver: solve_classic_vem(
            mesh, 3, get_solution("sinsin"), dof_mode="l2_normalized_x10",
            alpha=-1.0, solver=solver),
    ], ids=["sf-hct", "classic"])
    def test_cg_matches_direct(self, solve):
        mesh = generate_mesh("irregular8", 4)
        x = solve(mesh, "cg").dofs
        ref = solve(mesh, "direct").dofs
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_preconditioner_symmetric_positive(self):
        A, _, P, ed = two_level_system("sf-hct", "irregular8", 4, 3)
        apply = two_level_preconditioner(A, P, ed)
        rng = np.random.default_rng(11)
        for _ in range(20):
            u, v = rng.normal(size=(2, A.shape[0]))
            Mu, Mv = apply(u), apply(v)
            assert abs(u @ Mv - v @ Mu) <= 1e-12 * abs(u @ Mu)
            assert u @ Mu > 0

    def test_indefinite_matrix_raises(self):
        A, b, P, ed = two_level_system("sf-hct", "irregular8", 3, 3)
        # one eigenvalue below the shift: the element blocks stay positive
        # definite, and CG has to meet the negative curvature
        lam = np.linalg.eigvalsh(A.toarray())
        assert lam[1] > 2.0 * lam[0]
        B = (A - 2.0 * lam[0] * sp.eye(A.shape[0])).tocsc()
        with pytest.raises(NotSpdError):
            solve_spd(B, b, method="cg", coarse=P, element_dofs=ed)
        with pytest.raises(NotSpdError):
            solve_spd(-A.tocsc(), b, method="cg", coarse=P, element_dofs=ed)

    @pytest.mark.parametrize("k", [1, 3])
    def test_level_one(self, k):
        # uniform level 1 has no free vertex: at k = 1 no free DOF at all,
        # at k = 3 an empty coarse space and the smoother alone
        mesh = generate_mesh("uniform", 1)
        sol = solve_sf_vem(mesh, k, get_solution("sinsin"), solver="cg")
        ref = solve_sf_vem(mesh, k, get_solution("sinsin"))
        assert np.allclose(sol.dofs, ref.dofs, rtol=0, atol=1e-12)


class TestMatrixMarketExport:
    def test_roundtrip(self, tmp_path):
        from scipy.io import mmread
        A, _ = random_spd(8, seed=9)
        As = sp.csr_matrix(A)
        path = tmp_path / "matrix"
        export_matrix_market(As, str(path))
        B = mmread(str(path) + ".mtx")
        assert np.allclose(B.toarray(), A)
