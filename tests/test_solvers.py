import numpy as np
import pytest
import scipy.sparse as sp

from hctvem import solvers
from hctvem.mesh import generate_mesh
from hctvem.problems import get_solution
from hctvem.sf_vem import solve_sf_vem
from hctvem.solvers import (ConvergenceError, NotSpdError,
                            estimate_condition_2, export_matrix_market,
                            solve_cg, solve_dense_cholesky, solve_spd)


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
        A, _ = random_spd(25, seed=6)
        As = sp.csc_matrix(A)
        b = np.linspace(0, 1, 25)
        xd = solve_spd(As, b, method="direct")
        xc = solve_spd(As, b, method="cg", tol=1e-13)
        xe = solve_spd(As, b, method="dense")
        assert np.allclose(xd, xc, atol=1e-8)
        assert np.allclose(xd, xe, atol=1e-10)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(sp.eye(3, format="csc"), np.ones(3), method="gmres")

    def test_direct_matches_dense_cholesky_on_sf_hct_system(self):
        # irregular8 k=3 L4: 3,233 free DOFs, under the dense cap
        _, A, b = solve_sf_vem(generate_mesh("irregular8", 4), 3,
                               get_solution("sinsin"), return_system=True)
        assert A.shape[0] == 3233
        x = solve_spd(A, b, method="direct")
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


class TestMatrixMarketExport:
    def test_roundtrip(self, tmp_path):
        from scipy.io import mmread
        A, _ = random_spd(8, seed=9)
        As = sp.csr_matrix(A)
        path = tmp_path / "matrix"
        export_matrix_market(As, str(path))
        B = mmread(str(path) + ".mtx")
        assert np.allclose(B.toarray(), A)
