"""End-to-end acceptance suite: polynomial exactness of the projection,
definiteness of the assembled systems, frozen convergence targets for both
mesh families, stabilizer behaviour of the classical baseline, conditioning
trends, the lowest-order finite-element equivalence, and the harmonically
enriched variant."""

import time

import numpy as np
import pytest

from conftest import (classic_errors, enriched_errors, orders,
                      p1_fem_stiffness, random_ccw_triangle, reduced_system,
                      sf_errors, sf_oracle_errors)

from hctvem import solvers
from hctvem.classic_vem import solve_classic_vem
from hctvem.mesh import generate_mesh
from hctvem.problems import get_solution
from hctvem.sf_vem import SfElementClass, solve_sf_vem


class TestProjectionPreservesPolynomials:
    """Pi preserves P_k: 100 random degree-k polynomials on 50 random
    nondegenerate triangles per degree, relative sup error <= 1e-9."""

    def test_random_polynomials_on_random_triangles(self):
        rng = np.random.default_rng(20240815)
        t0 = time.perf_counter()
        worst = 0.0
        for k in range(1, 7):
            for _ in range(50):
                tri = random_ccw_triangle(rng)
                ec = SfElementClass(k, tri - tri[0])
                basis = ec.space.sub_bases[0]
                C = rng.normal(size=(basis.dim, 100))
                exact = basis.values(ec.space.nodes) @ C
                D = np.empty((ec.ndof, 100))
                D[:ec.n_boundary] = \
                    basis.values(ec.space.nodes[:ec.n_boundary]) @ C
                if ec.n_interior:
                    lap_c = -(basis.laplacian_map().T @ C)
                    mu = ec.interior_basis.values(ec.space.quad_points)
                    w = ec.space.quad_weights
                    gram = mu.T @ (w[:, None] * mu)
                    lap_q = basis.lowered().values(
                        ec.space.quad_points) @ lap_c
                    c_mu = np.linalg.solve(gram, mu.T @ (w[:, None] * lap_q))
                    D[ec.n_boundary:] = c_mu * ec.diameter ** 2 \
                        * ec.interior_scale[:, None]
                rec = ec.projection @ D
                err = np.abs(rec - exact).max(axis=0) \
                    / np.abs(exact).max(axis=0)
                worst = max(worst, float(err.max()))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9
        assert elapsed < 10.0


class TestGlobalSystemsPositiveDefinite:
    """Unique solvability: dense Cholesky succeeds on coarse levels and CG
    meets no negative curvature on finer ones, all degrees, both families."""

    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_cholesky_levels_1_to_3(self, family, k):
        for level in (1, 2, 3):
            A, b, _, _ = reduced_system("sf-hct", family, k, level)
            x = solvers.solve_dense_cholesky(A, b)   # raises if not SPD
            assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_cg_levels_4_to_6(self, family, k):
        for level in (4, 5, 6):
            A, b, _, _ = reduced_system("sf-hct", family, k, level)
            x, _ = solvers.solve_cg(A, b, tol=1e-10, max_iter=20000,
                                    preconditioner="jacobi")
            assert np.all(np.isfinite(x))


# frozen reference errors for u = sin(pi x) sin(pi y): (level, l2, h1)
UNIFORM_K1 = [(7, 3.032e-4, 1.382e-3),
              (8, 7.586e-5, 3.457e-4),
              (9, 1.897e-5, 8.644e-5)]


class TestUniformDegree1:
    """Fine uniform meshes at lowest order: 2% error reproduction and
    second-order rates in both norms (the H1 rate is superconvergent)."""

    def test_l2_errors_within_2_percent(self):
        for (lev, l2, _), got in zip(UNIFORM_K1,
                                     sf_errors("uniform", 1, 7, 9)):
            assert got[0] == pytest.approx(l2, rel=0.02)

    def test_h1_errors_within_2_percent(self):
        for (lev, _, h1), got in zip(UNIFORM_K1,
                                     sf_errors("uniform", 1, 7, 9)):
            assert got[1] == pytest.approx(h1, rel=0.02)

    def test_orders_two_in_both_norms(self):
        for l2o, h1o in orders(sf_errors("uniform", 1, 7, 9)):
            assert l2o == pytest.approx(2.00, abs=0.05)
            assert h1o == pytest.approx(2.00, abs=0.05)


class TestUniformHighOrder:
    """Fine uniform meshes at k = 3 and k = 4."""

    def test_k3_level6_l2_magnitude(self):
        # the frozen magnitudes (k = 1..6, both families) are reproduced
        # to 0.5 % by the load (Pi I_h f, Pi phi), f interpolated in the
        # virtual element space like the error reference (load rule
        # "vem").  At k = 3 the L2 size depends on the load rule (default
        # parent P_3 interpolation 7.34e-8, exact 5.23e-8) while H1 and the
        # orders do not, so this value is checked under that rule
        errs_k3 = sf_errors("uniform", 3, 6, 6, "vem")
        assert errs_k3[0][0] == pytest.approx(4.906e-8, rel=0.03)

    def test_k3_level6_h1_magnitude(self):
        errs_k3 = sf_errors("uniform", 3, 5, 6)
        assert errs_k3[1][1] == pytest.approx(1.628e-5, rel=0.03)

    def test_k4_level5_magnitudes(self):
        errs_k4 = sf_errors("uniform", 4, 4, 5)
        assert errs_k4[1][0] == pytest.approx(1.038e-8, rel=0.05)
        assert errs_k4[1][1] == pytest.approx(3.216e-6, rel=0.05)

    @pytest.mark.parametrize("load_rule", ["interp", "exact", "vem"])
    def test_k3_matches_per_element_oracle(self, load_rule):
        # the oracle builds one HCT space per triangle, no class cache.
        # Level 3 only: at level 4 rounding in the two solves (2e-14 in L2,
        # ||u|| = 0.5) already moves the L2 error (1.8e-5) by up to 1e-9
        got = sf_errors("uniform", 3, 3, 3, load_rule)[0]
        want = sf_oracle_errors("uniform", 3, 3, load_rule)
        assert got[0] == pytest.approx(want[0], rel=1e-10)
        assert got[1] == pytest.approx(want[1], rel=1e-10)

    def test_k3_orders(self):
        (l2o, h1o), = orders(sf_errors("uniform", 3, 5, 6))
        assert l2o == pytest.approx(4.0, abs=0.1)
        assert h1o == pytest.approx(3.0, abs=0.1)

    def test_k4_orders(self):
        (l2o, h1o), = orders(sf_errors("uniform", 4, 4, 5))
        assert l2o == pytest.approx(5.0, abs=0.1)
        assert h1o == pytest.approx(4.0, abs=0.1)


# irregular family: per degree a level window, the reference orders at the
# two finest tested levels, and the reference errors at the finest level
IRREGULAR_CASES = {
    1: ((6, 8), [(2.00, 1.00), (2.00, 1.00)], (2.052e-5, 3.817e-3)),
    2: ((6, 8), [(3.00, 1.99), (3.00, 2.00)], (9.423e-9, 1.670e-5)),
    3: ((5, 7), [(4.00, 2.99), (4.00, 3.00)], (2.916e-10, 3.844e-7)),
    4: ((4, 6), [(5.00, 3.99), (5.00, 4.00)], (2.374e-11, 2.389e-8)),
    5: ((2, 4), [(6.01, 4.96), (6.01, 4.99)], (5.170e-10, 1.665e-7)),
    6: ((1, 3), [(7.30, 6.19), (7.01, 5.97)], (1.320e-9, 2.515e-7)),
}


class TestIrregularFamily:
    """Order and magnitude reproduction on the 8-triangle tiling for all
    supported degrees; the lowest order is special: its H1 rate is plain
    first order here, without the uniform-mesh superconvergence."""

    @pytest.mark.parametrize("k", sorted(IRREGULAR_CASES))
    def test_orders_within_tenth(self, k):
        (lo, hi), expected, _ = IRREGULAR_CASES[k]
        got = orders(sf_errors("irregular8", k, lo, hi))
        for (l2o, h1o), (el2, eh1) in zip(got, expected):
            assert l2o == pytest.approx(el2, abs=0.1)
            assert h1o == pytest.approx(eh1, abs=0.1)

    @pytest.mark.parametrize("k", sorted(IRREGULAR_CASES))
    def test_finest_level_magnitudes_within_factor_3(self, k):
        (lo, hi), _, (l2, h1) = IRREGULAR_CASES[k]
        got = sf_errors("irregular8", k, lo, hi)[-1]
        assert l2 / 3 <= got[0] <= 3 * l2
        assert h1 / 3 <= got[1] <= 3 * h1

    def test_k3_irregular_l2_with_vem_load(self):
        # the default parent-interpolated load gives 4.06e-10 here (39 %
        # above the target); the virtual-interpolant load reproduces it
        (_, hi), _, (l2, _) = IRREGULAR_CASES[3]
        got = sf_errors("irregular8", 3, hi, hi, "vem")[0]
        assert got[0] == pytest.approx(l2, rel=0.03)


class TestStabilizedBaseline:
    """The classical stabilizer degrades high-order rates; rescaling it by
    negative diameter powers restores them."""

    MODE = "l2_normalized_x10"

    def test_k3_alpha0_h1_order_degrades(self):
        errs = classic_errors("irregular8", 3, 1, 5, self.MODE, 0.0)
        h1 = [o[1] for o in orders(errs)]
        # orders computed at levels 2..5; levels 3 and 4 stay below 2.7
        assert h1[1] <= 2.7
        assert h1[2] <= 2.7

    def test_k3_alpha_minus1_recovers(self):
        errs = classic_errors("irregular8", 3, 1, 5, self.MODE, -1.0)
        h1 = [o[1] for o in orders(errs)]
        assert h1[-1] >= 2.9

    def test_k4_alpha_minus2_recovers_l2(self):
        errs = classic_errors("irregular8", 4, 1, 5, self.MODE, -2.0)
        l2 = [o[0] for o in orders(errs)]
        assert l2[-1] >= 4.8


class TestConditioning:
    def test_stabilizer_free_kappa_grows_as_h_minus_2(self):
        prob = get_solution("sinsin")
        kappas = []
        for level in range(2, 6):
            mesh = generate_mesh("irregular8", level)
            A = solve_sf_vem(mesh, 3, prob).matrix
            kappas.append(solvers.estimate_condition_2(A))
        slope = np.polyfit(np.arange(2, 6) * np.log(2.0),
                           np.log(kappas), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_classic_moment_scaling_reduces_kappa_10x(self):
        prob = get_solution("sinsin")
        mesh = generate_mesh("irregular8", 3)
        A_std = solve_classic_vem(mesh, 3, prob,
                                  dof_mode="standard").matrix
        A_scaled = solve_classic_vem(mesh, 3, prob,
                                     dof_mode="l2_normalized_x10").matrix
        k_std = solvers.estimate_condition_2(A_std)
        k_scaled = solvers.estimate_condition_2(A_scaled)
        assert k_std >= 10.0 * k_scaled


class TestLowestOrderEquivalence:
    """At k = 1 the method is entrywise the linear finite element method."""

    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    def test_stiffness_matches_cotangent_formula(self, family):
        prob = get_solution("sinsin")
        for level in (1, 2, 3, 4):
            mesh = generate_mesh(family, level)
            A = solve_sf_vem(mesh, 1, prob).matrix
            F = p1_fem_stiffness(mesh)
            assert A.shape == F.shape
            if A.shape[0]:        # coarsest meshes have no free vertices
                assert abs(A - F).max() <= 1e-12


class TestEnrichedVariant:
    def test_p2_with_two_cubic_harmonics_optimal_orders(self):
        got = orders(enriched_errors("irregular8", 2, (3,), 5, 7))
        for l2o, h1o in got:
            assert l2o == pytest.approx(3.00, abs=0.1)
            assert h1o == pytest.approx(2.00, abs=0.1)

    def test_p5_enrichment_h1_order_collapses(self):
        got = orders(enriched_errors("irregular8", 5,
                                     (6, 7, 8, 9, 10), 2, 4))
        assert got[-1][1] < 2.5
