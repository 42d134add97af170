import numpy as np
import pytest

from conftest import polynomial

from hctvem import classic_vem
from hctvem.mesh import generate_mesh
from hctvem.pipeline import AssemblyError
from hctvem.problems import get_solution
from hctvem.classic_vem import (DOF_MODES, ClassicElementClass,
                                EnrichedElementClass, solve_classic_vem,
                                solve_enriched_vem)
from hctvem.quadrature import quad_rule_triangle
from hctvem.sf_vem import solve_sf_vem

TRI = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]])


def dofs_of(ec, g):
    """The DOFs of g on ec itself (one copy, not translated)."""
    return ec.dof_values(g, None, np.zeros((1, 2)))[0]


class TestDofs:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            EnrichedElementClass(2, TRI, (), "weird")

    @pytest.mark.parametrize("mode", DOF_MODES)
    def test_dof_count(self, mode):
        for k in (1, 2, 3, 4):
            ec = EnrichedElementClass(k, TRI, (), mode)
            assert ec.ndof == 3 * k + k * (k - 1) // 2

    def test_constant_function_dofs(self):
        ec = EnrichedElementClass(3, TRI, (), "standard")
        vals = dofs_of(ec, lambda x, y: np.ones_like(x))
        # nodal values are 1; the constant moment is area/area = 1,
        # higher moments are centred-monomial averages
        assert np.allclose(vals[:ec.n_boundary], 1.0)
        assert vals[ec.n_boundary] == pytest.approx(1.0, rel=1e-12)

    def test_x10_mode_scales_moments_up(self):
        f = lambda x, y: x * y
        a = dofs_of(EnrichedElementClass(3, TRI, (), "l2_normalized"), f)
        b = dofs_of(EnrichedElementClass(3, TRI, (), "l2_normalized_x10"),
                    f)
        nb = 9
        assert np.allclose(b[nb:], 10.0 * a[nb:])


class TestProjection:
    @pytest.mark.parametrize("mode", DOF_MODES)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reproduces_degree_k_polynomials(self, k, mode):
        rng = np.random.default_rng(k)
        ec = ClassicElementClass(k, TRI, mode)
        c = rng.normal(size=ec.poly.dim)
        dofs = dofs_of(ec, polynomial(ec.poly, c)[0])
        proj = ec.projection @ dofs
        assert np.allclose(proj, c, atol=1e-10 * max(1, np.abs(c).max()))

    def test_consistency_stiffness_kernel_is_constants(self):
        ec = ClassicElementClass(3, TRI)
        const = dofs_of(ec, lambda x, y: np.ones_like(x))
        assert np.allclose((ec.K_loc - ec.stabilizer) @ const, 0.0,
                           atol=1e-12)


class TestStabilizer:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_annihilates_polynomial_dofs(self, k):
        rng = np.random.default_rng(k)
        ec = ClassicElementClass(k, TRI)
        c = rng.normal(size=ec.poly.dim)
        dofs = dofs_of(ec, polynomial(ec.poly, c)[0])
        S = ec.stabilizer
        scale = np.abs(S).max() * float(dofs @ dofs)
        assert float(dofs @ S @ dofs) < 1e-13 * max(1.0, scale)

    def test_psd_and_alpha_scaling(self):
        ec = ClassicElementClass(3, TRI, alpha=0.0)
        S0 = ec.stabilizer
        S1 = ClassicElementClass(3, TRI, alpha=-1.0).stabilizer
        ev = np.linalg.eigvalsh(S0)
        assert ev[0] > -1e-12
        assert np.allclose(S1, S0 / ec.diameter)


class TestGlobalSolves:
    def test_degree_1_matches_stabilizer_free_method(self):
        # for k = 1 on a triangle the virtual space is P_1, the stabilizer
        # vanishes, and both methods reduce to the same matrix
        prob = get_solution("sinsin")
        m = generate_mesh("irregular8", 3)
        s1 = solve_sf_vem(m, 1, prob)
        s2 = solve_classic_vem(m, 1, prob)
        assert abs(s1.matrix - s2.matrix).max() < 1e-12
        assert np.allclose(s1.load, s2.load, atol=1e-13)

    def test_alpha_is_part_of_the_class_cache_key(self, monkeypatch):
        # one process, two alphas: each reduced matrix must equal a build
        # from an empty cache, so a stale K_loc cannot be reused
        prob = get_solution("sinsin")
        m = generate_mesh("irregular8", 3)
        got = {a: solve_classic_vem(m, 3, prob, alpha=a).matrix
               for a in (0.0, -1.0)}
        for a, A in got.items():
            monkeypatch.setattr(classic_vem, "_CLASSIC_CACHE", {})
            fresh = solve_classic_vem(m, 3, prob, alpha=a).matrix
            assert (A != fresh).nnz == 0
        assert abs(got[0.0] - got[-1.0]).max() > 1e-3 * abs(got[0.0]).max()

    @pytest.mark.parametrize("rule", ["vem", "midpoint"])
    def test_load_rule_errors_through_shared_assembler(self, rule):
        prob = get_solution("sinsin")
        m = generate_mesh("uniform", 2)
        with pytest.raises(AssemblyError):
            solve_classic_vem(m, 2, prob, load_rule=rule)
        with pytest.raises(AssemblyError):
            solve_enriched_vem(m, 2, prob, harmonic_degrees=(3,),
                               load_rule=rule)

    def test_degree_above_4_rejected(self):
        with pytest.raises(ValueError):
            solve_classic_vem(generate_mesh("uniform", 1), 5,
                              get_solution("sinsin"))

    def test_degree_2_convergence_orders(self):
        prob = get_solution("sinsin")
        errs = []
        for lev in (2, 3, 4):
            m = generate_mesh("uniform", lev)
            sol = solve_classic_vem(m, 2, prob)
            errs.append(sol.solution_field().error_norms(
                sol.reference_field(prob)))
        l2o = np.log2(errs[1][0] / errs[2][0])
        h1o = np.log2(errs[1][1] / errs[2][1])
        # rates can exceed the guaranteed (3, 2) on these structured meshes
        assert l2o >= 3.0 - 0.4
        assert h1o >= 2.0 - 0.4


class TestEnriched:
    def test_validates_degrees(self):
        m = generate_mesh("uniform", 1)
        prob = get_solution("sinsin")
        with pytest.raises(ValueError):
            solve_enriched_vem(m, 2, prob, harmonic_degrees=())
        with pytest.raises(ValueError):
            solve_enriched_vem(m, 2, prob, harmonic_degrees=(2,))

    def test_reproduces_base_polynomials(self):
        rng = np.random.default_rng(3)
        ec = EnrichedElementClass(2, TRI, (3,))
        c = rng.normal(size=ec.poly.dim)
        dofs = dofs_of(ec, polynomial(ec.poly, c)[0])
        proj = ec.projection @ dofs
        # enriched coefficients: polynomial part equals c, harmonic part 0
        assert np.allclose(proj[:ec.poly.dim], c, atol=1e-10)
        assert np.allclose(proj[ec.poly.dim:], 0.0, atol=1e-10)

    def test_local_stiffness_symmetric_psd(self):
        ec = EnrichedElementClass(3, TRI, (4, 5))
        assert np.allclose(ec.K_loc, ec.K_loc.T)
        assert np.linalg.eigvalsh(ec.K_loc)[0] > -1e-10

    @pytest.mark.parametrize("k,degrees", [(1, (6,)), (1, (8,)), (2, (9,))])
    def test_gradient_gram_exact_for_high_harmonic_degrees(self, k, degrees):
        # the volume rule must grow with the harmonic degree m: the
        # gradient Gram matrix has degree 2m - 2, the L2 terms 2m
        ec = EnrichedElementClass(k, TRI, degrees)
        pts, w = quad_rule_triangle(30).physical(TRI)
        g = np.concatenate([ec.poly.gradients(pts), ec.harm.gradients(pts)],
                           axis=1)
        G30 = np.einsum("q,qad,qbd->ab", w, g, g)
        G = np.einsum("q,qad,qbd->ab", ec.quad_weights, ec.basis_gradients,
                      ec.basis_gradients)
        assert np.abs(G - G30).max() <= 1e-13 * np.abs(G30).max()
        M = ec.basis_values.T @ (ec.quad_weights[:, None] * ec.basis_values)
        v = np.column_stack([ec.poly.values(pts), ec.harm.values(pts)])
        M30 = v.T @ (w[:, None] * v)
        assert np.abs(M - M30).max() <= 1e-13 * np.abs(M30).max()
