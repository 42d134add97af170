import threading

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import element_classes, lanczos_every_step, p1_fem_stiffness
from hctvem import pipeline, solvers
from hctvem.classic_vem import solve_classic_vem
from hctvem.dofmap import DofMap, boundary_nodes
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
        assert np.allclose(xd, xc, atol=1e-8)
        assert np.allclose(xd, solve_dense_cholesky(A, b), atol=1e-10)
        for kappa in (kd, kc):
            assert kappa == pytest.approx(d[-1] / d[0], rel=1e-10)
        assert solve_spd(As, b)[1] is None

    @pytest.mark.parametrize("method", solvers.SOLVERS)
    def test_singular_matrix_is_not_spd(self, method):
        # the direct factor, and CG's coarse factor, which comes before
        # the element blocks
        _, b, P, ed = two_level_system("sf-hct", "irregular8", 3, 3)
        Z = sp.csc_matrix((len(b), len(b)))
        with pytest.raises(NotSpdError, match="singular"):
            solve_spd(Z, b, method=method, coarse=P, element_dofs=ed)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(sp.eye(3, format="csc"), np.ones(3), method="gmres")

    def test_dense_is_no_solver(self):
        # dense Cholesky is only the reference, solve_dense_cholesky
        assert solvers.SOLVERS == ("direct", "cg")
        with pytest.raises(ValueError, match="unknown solver"):
            solve_spd(sp.eye(3, format="csc"), np.ones(3), method="dense")

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
        # the direct solve factors the skeleton system S (the interior
        # DOFs condensed out).  At irregular8 k=3 L5 a symmetric
        # minimum-degree ordering keeps nnz(L)+nnz(U) at 4.63 nnz(S);
        # COLAMD gives about 9.1 nnz(S).  The bound, set before the run,
        # is 5 times the nnz of the matrix factored, which must be S
        factored = []
        splu = solvers.spla.splu

        def spy(A, *args, **kwargs):
            lu = splu(A, *args, **kwargs)
            factored.append((A.shape, A.nnz, lu.L.nnz + lu.U.nnz))
            return lu

        monkeypatch.setattr(solvers.spla, "splu", spy)
        sol = solve_sf_vem(generate_mesh("irregular8", 5), 3,
                           get_solution("sinsin"))
        assert len(factored) == 1
        shape, nnz, fill = factored[0]
        n = sol.dofmap.n_skeleton
        assert shape == (n, n)
        assert fill / nnz < 5


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

    @pytest.mark.parametrize("interior,want", [
        ((0.5, 1.0), 8.0),      # the blocks hold lambda_min
        ((2.0, 8.0), 4.0),      # and lambda_max
        ((0.5, 8.0), 16.0),     # both
        ((2.0, 3.0), 2.0),      # neither
        ((np.inf, -np.inf), 2.0),
    ])
    def test_interior_blocks_widen_the_spectrum(self, interior, want):
        # diag(2, 3, 4) beside SPD blocks with the given extremes
        A = sp.csc_matrix(np.diag([2.0, 3.0, 4.0]))
        assert estimate_condition_2(A, interior=interior) \
            == pytest.approx(want, rel=1e-12)

    def test_interior_blocks_alone(self):
        assert estimate_condition_2(sp.csc_matrix((0, 0)),
                                    interior=(0.5, 2.0)) == 4.0
        with pytest.raises(ValueError, match="empty"):
            estimate_condition_2(sp.csc_matrix((0, 0)),
                                 interior=(np.inf, -np.inf))

    @pytest.mark.parametrize("lo", [-1.0, 0.0])
    def test_nonpositive_interior_block_rejected(self, lo):
        A = sp.csc_matrix(np.diag([2.0, 3.0]))
        with pytest.raises(NotSpdError, match="interior"):
            estimate_condition_2(A, interior=(lo, 1.0))

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
    factors = {"direct": solvers._superlu_inverse(A), "cg": None}
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


class TestStartVector:
    """lambda_max's Lanczos starts from the alternating vector (1, -1, 1,
    ...), whose component along the oscillatory top of a stiffness
    spectrum is far larger than the all-ones vector's; 1 / lambda_min's
    starts from all ones, as the top of A^-1 is smooth."""

    @pytest.mark.parametrize("system", sorted(ORACLE_SYSTEMS))
    def test_alternating_start_matches_every_step_rule(self, system):
        A = ORACLE_SYSTEMS[system](get_solution("sinsin")).matrix
        apply, _ = counted(A)
        n = A.shape[0]
        start = solvers._alternating(n)
        got = solvers._lanczos_extreme(apply, n, start=start)
        want, _ = lanczos_every_step(apply, n, start=start)
        assert abs(got - want) <= 1e-13 * want
        top = np.linalg.eigvalsh(A.toarray())[-1]
        assert abs(got - top) <= 1e-10 * top

    def test_alternating_start_on_a_clustered_top(self):
        A = clustered_diagonal()
        apply, _ = counted(A)
        n = A.shape[0]
        start = solvers._alternating(n)
        got = solvers._lanczos_extreme(apply, n, start=start)
        want, _ = lanczos_every_step(apply, n, start=start)
        assert abs(got - want) <= 1e-13 * want
        assert abs(got - 1.0) <= 1e-10

    def test_default_start_is_all_ones(self):
        A = ORACLE_SYSTEMS["sf-hct k=2 irregular8 L3"](
            get_solution("sinsin")).matrix
        apply, _ = counted(A)
        n = A.shape[0]
        assert solvers._lanczos_extreme(apply, n) \
            == solvers._lanczos_extreme(apply, n, start=np.ones(n))

    def test_kappa_starts(self, monkeypatch):
        starts = []
        lanczos = solvers._lanczos_extreme

        def spy(apply, n, **kwargs):
            starts.append(kwargs.get("start"))
            return lanczos(apply, n, **kwargs)

        monkeypatch.setattr(solvers, "_lanczos_extreme", spy)
        A = clustered_diagonal(100)
        alternating = np.resize([1.0, -1.0], 100)
        for run in (lambda: estimate_condition_2(A),
                    lambda: solve_spd(A, np.ones(100), kappa=True)):
            starts.clear()
            run()
            assert sorted(s is None for s in starts) == [False, True]
            assert all(np.array_equal(s, alternating)
                       for s in starts if s is not None)

    def test_condensed_kappa_equals_its_runs_in_sequence(self):
        # the thread changes no bit: kappa is lambda_max's Lanczos on the
        # element-by-element products times lambda_min's on the
        # condensed inverse through the solve's own factor.  classic, as
        # sf-hct's kappa takes neither (the test below)
        mesh = generate_mesh("irregular8", 3)
        classes = element_classes("classic", mesh, 3)
        dm = DofMap(mesh, 3)
        cond = pipeline.Condensation(dm, classes)
        S = pipeline.assemble_matrix(dm, classes, skeleton=True)
        g = cond.condense(np.ones(dm.n_free))
        _, kappa = solve_spd(S, g, kappa=True, condensed=cond)
        n = dm.n_free
        lam_max = solvers._lanczos_extreme(cond.matvec, n,
                                           start=solvers._alternating(n))
        inverse = cond.inverse(solvers._superlu_inverse(S))
        assert kappa == lam_max * solvers._lanczos_extreme(inverse, n)

    def test_decoupled_kappa_is_the_skeletons_with_the_interior_blocks(
            self):
        # sf-hct's kappa: lambda_max's Lanczos on S and lambda_min's on the
        # solve's own factor of S, widened by the K_ii extremes
        mesh = generate_mesh("irregular8", 3)
        classes = element_classes("sf-hct", mesh, 3)
        dm = DofMap(mesh, 3)
        cond = pipeline.Condensation(dm, classes)
        assert cond.decoupled
        S = pipeline.assemble_matrix(dm, classes, skeleton=True)
        g = cond.condense(np.ones(dm.n_free))
        _, kappa = solve_spd(S, g, kappa=True, condensed=cond)
        lo, hi = cond.interior_spectrum
        lam_max = solvers._lambda_max(S)
        mu = solvers._lanczos_extreme(solvers._superlu_inverse(S),
                                      dm.n_skeleton)
        assert kappa == max(lam_max, hi) * max(mu, 1.0 / lo)

    def test_lambda_max_products_at_k6_level3(self, monkeypatch):
        # sf-hct's lambda_max is the top of S or of a K_ii, and Lanczos
        # runs on S from the alternating start
        products = []
        lanczos = solvers._lanczos_extreme

        def spy(apply, n, **kwargs):
            if kwargs.get("start") is None:
                return lanczos(apply, n, **kwargs)

            def counted(x):
                products.append(1)
                return apply(x)
            return lanczos(counted, n, **kwargs)

        monkeypatch.setattr(solvers, "_lanczos_extreme", spy)
        sol = solve_sf_vem(generate_mesh("irregular8", 3), 6,
                           get_solution("sinsin"), solver="cg", kappa=True)
        assert sol.kappa > 1
        # measured 82 products on S, as many as on the full system
        assert len(products) <= 90


def condensed_system(method, family, k, level):
    """(S, g, cond): the skeleton matrix (CSC), the condensed load of the
    sinsin problem and the Condensation, as pipeline.solve_reduced hands
    them to solve_spd."""
    mesh = generate_mesh(family, level)
    classes = element_classes(method, mesh, k)
    dm = DofMap(mesh, k)
    cond = pipeline.Condensation(dm, classes)
    b = pipeline.assemble_load(dm, classes, get_solution("sinsin").f)
    return (pipeline.assemble_matrix(dm, classes, skeleton=True),
            cond.condense(b[:dm.n_free]), cond)


class TestKappaThread:
    """solve_spd runs lambda_max's Lanczos on a second thread for a
    coupled condensation (classic here) and joins it whatever happens on
    its own."""

    @pytest.fixture(autouse=True)
    def started(self, monkeypatch):
        """The threads started meanwhile; none is left running."""
        before = threading.active_count()
        started = []
        start = threading.Thread.start

        def spy(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        yield started
        assert threading.active_count() == before

    @pytest.fixture(scope="class")
    def classic(self):
        S, g, cond = condensed_system("classic", "irregular8", 3, 3)
        assert not cond.decoupled
        return S, g, cond

    def test_lambda_max_error_comes_out(self, monkeypatch, classic, started):
        lanczos = solvers._lanczos_extreme

        def fail_off_main(apply, n, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise ConvergenceError("lambda_max not settled", 0)
            return lanczos(apply, n, **kwargs)

        monkeypatch.setattr(solvers, "_lanczos_extreme", fail_off_main)
        S, g, cond = classic
        for method in ("direct", "cg"):
            with pytest.raises(ConvergenceError, match="lambda_max"):
                solve_spd(S, g, method=method, kappa=True, condensed=cond)
        assert len(started) == 2

    def test_cg_failure_joins_thread(self, classic, started):
        S, g, cond = classic
        lam = np.linalg.eigvalsh(S.toarray())
        B = (S - 2.0 * lam[0] * sp.eye(S.shape[0])).tocsc()
        with pytest.raises(NotSpdError):
            solve_spd(B, g, method="cg", kappa=True, condensed=cond)
        assert len(started) == 1

    def test_singular_direct_failure_joins_thread(self, classic, started):
        S, g, cond = classic
        keep = sp.diags(np.r_[np.ones(S.shape[0] - 1), 0.0])
        with pytest.raises(RuntimeError, match="singular"):
            solve_spd((keep @ S @ keep).tocsc(), g, method="direct",
                      kappa=True, condensed=cond)
        assert len(started) == 1

    def test_thread_only_with_kappa_on_a_nonempty_matrix(self, classic,
                                                         started):
        S, g, cond = classic
        for method in solvers.SOLVERS:
            solve_spd(S, g, method=method, condensed=cond)
        # classic k = 1 on uniform level 1 has no free DOF
        empty = condensed_system("classic", "uniform", 1, 1)
        assert empty[2].shape == (0, 0)
        solve_spd(*empty[:2], kappa=True, condensed=empty[2])
        assert started == []
        for method in solvers.SOLVERS:
            solve_spd(S, g, method=method, kappa=True, condensed=cond)
        assert len(started) == len(solvers.SOLVERS)

    def test_bare_matrix_starts_no_thread(self, started):
        # both Lanczos runs on this thread, as for a decoupled system
        A = clustered_diagonal(100)
        for method in solvers.SOLVERS:
            _, kappa = solve_spd(A, np.ones(100), method=method, kappa=True)
            assert kappa == estimate_condition_2(A)
        assert started == []


def two_level_system(method, family, k, level):
    """The skeleton matrix (CSR) and condensed load, the coarse space and
    the elements' skeleton DOFs of the sinsin problem, built as
    pipeline.solve_reduced builds them."""
    S, g, cond = condensed_system(method, family, k, level)
    return (S.tocsr(), g, cond.dm.coarse_space(),
            cond.dm.element_dofs[:, :3 * k])


def hat_values(mesh, dm):
    """{(skeleton DOF, free vertex): value} of the P1 hat functions at the
    free vertex and edge nodes, from the barycentric coordinates of each
    element's boundary nodes; the zeros left out."""
    k, nv = dm.k, np.count_nonzero(~mesh.boundary_vertex)
    out = {}
    for tri, dofs in zip(mesh.triangles, dm.element_dofs[:, :3 * k]):
        v = mesh.vertices[tri]
        nodes = boundary_nodes(v, k)
        lam = np.linalg.solve(np.vstack([np.ones(3), v.T]),
                              np.vstack([np.ones(3 * k), nodes.T]))
        for i, col in enumerate(dofs[:3]):
            for row, val in zip(dofs, lam[i]):
                if row < dm.n_skeleton and col < nv and abs(val) > 1e-12:
                    out[int(row), int(col)] = val
    return out


class TestTwoLevel:
    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    @pytest.mark.parametrize("method,k", [("sf-hct", k) for k in range(1, 7)]
                             + [("classic", k) for k in range(1, 5)]
                             + [("enriched", 2)])
    def test_coarse_matrix_is_p1_stiffness(self, method, k, family):
        # the P1 hat functions lie in every method's space and each local
        # stiffness is exact on P_1; their interior DOFs are the ones that
        # minimize the energy, so P^T S P is the cotangent matrix
        A, _, P, _ = two_level_system(method, family, k, 3)
        F = p1_fem_stiffness(generate_mesh(family, 3))
        assert P.shape == (A.shape[0], F.shape[0])
        assert abs(P.T @ A @ P - F).max() <= 1e-12 * abs(F).max()

    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_coarse_space_holds_exactly_the_hat_values(self, family, k):
        mesh = generate_mesh(family, 3)
        dm = DofMap(mesh, k)
        P = dm.coarse_space().tocoo()
        want = hat_values(mesh, dm)
        got = dict(zip(zip(P.row.tolist(), P.col.tolist()), P.data))
        assert P.nnz == len(got) == len(want)
        assert got.keys() == want.keys()
        assert max(abs(got[key] - want[key]) for key in want) <= 1e-14

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

    def test_bytes_and_name_match_mmwrite(self, tmp_path):
        from scipy.io import mmwrite
        A = sp.csr_matrix(random_spd(8, seed=9)[0])
        mmwrite(str(tmp_path / "direct"), sp.coo_matrix(A))
        for name in ("matrix", "named.mtx"):
            export_matrix_market(A, str(tmp_path / name))
        want = (tmp_path / "direct.mtx").read_bytes()
        assert (tmp_path / "matrix.mtx").read_bytes() == want
        assert (tmp_path / "named.mtx").read_bytes() == want

    def test_missing_directory_raises(self, tmp_path):
        A = sp.csr_matrix(random_spd(8, seed=9)[0])
        with pytest.raises(FileNotFoundError):
            export_matrix_market(A, str(tmp_path / "missing" / "A"))
