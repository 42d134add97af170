from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (dirichlet_oracle, group_elements_oracle, orders,
                      polynomial, random_ccw_triangle, reduced_system,
                      sf_errors)

from hctvem.classic_vem import ClassicElementClass, EnrichedElementClass
from hctvem.dofmap import DofMap, boundary_nodes
from hctvem.mesh import generate_mesh
from hctvem.pipeline import AssemblyError, group_elements
from hctvem.problems import get_solution
from hctvem.sf_vem import (SfElementClass, _assemble, _class_cache_build,
                           solve_sf_vem)

TRI = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]])


def min_angle_deg(tri):
    """Smallest interior angle of a triangle, in degrees."""
    a = tri[[1, 2, 0]] - tri                  # vertex i -> vertex i+1
    b = tri[[2, 0, 1]] - tri                  # vertex i -> vertex i-1
    cos = np.einsum("id,id->i", a, b) \
        / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    return float(np.degrees(np.arccos(cos)).min())


def assert_groups_match_oracle(mesh):
    got, want = group_elements(mesh), group_elements_oracle(mesh)
    assert list(got) == list(want)
    assert np.array(list(got)).tobytes() == np.array(list(want)).tobytes()
    for a, b in zip(got.values(), want.values()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestElementClasses:
    def test_uniform_mesh_has_two_shapes(self):
        m = generate_mesh("uniform", 3)
        groups = group_elements(m)
        assert len(groups) == 2
        assert sum(len(v) for v in groups.values()) == m.num_triangles

    def test_irregular_mesh_shape_count_is_level_independent(self):
        g1 = group_elements(generate_mesh("irregular8", 2))
        g2 = group_elements(generate_mesh("irregular8", 3))
        # the tiling scales with 1/n, so shapes differ across levels but
        # the number of classes stays that of the 8-triangle pattern
        assert len(g1) == len(g2) == 8

    @pytest.mark.parametrize("family,level",
                             [("uniform", lev) for lev in range(1, 9)]
                             + [("irregular8", lev) for lev in range(1, 8)])
    def test_groups_match_loop_oracle(self, family, level):
        assert_groups_match_oracle(generate_mesh(family, level))

    def test_signed_zero_keys_form_one_class(self):
        # the first key rounds to -0.0, the second to 0.0: one class,
        # keyed by the first triangle's key as in the dict walk
        m = SimpleNamespace(
            vertices=np.array([[0.0, 0.0], [1.0, -1e-15], [0.0, 1.0],
                               [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]),
            triangles=np.array([[0, 1, 2], [3, 4, 5]]))
        assert len(group_elements(m)) == 1
        assert_groups_match_oracle(m)

    def test_class_cache_reuses_instances(self):
        cache = {}
        m = generate_mesh("uniform", 2)
        a = _class_cache_build(m, 2, cache)
        b = _class_cache_build(m, 2, cache)
        assert all(x[0] is y[0] for x, y in zip(a, b))


class TestLocalProjection:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_polynomial_dofs_reproduced_through_projection(self, k):
        # dof_values(p, Delta p, origins) @ projection.T is p on every
        # translated copy: sf-hct compared by HCT node values, classic
        # (k <= 4) and enriched (k = 2, degree 3) by the coefficients of
        # their P_k basis, whose origin moves with the copy
        rng = np.random.default_rng(k)
        origins = rng.uniform(-2.0, 2.0, (3, 2))
        ec = SfElementClass(k, TRI)
        basis = ec.space.sub_bases[0]
        c = rng.normal(size=basis.dim)
        p, lap_p = polynomial(basis, c)
        got = ec.dof_values(p, lap_p, origins) @ ec.projection.T
        want = p(origins[:, None, 0] + ec.space.nodes[:, 0],
                 origins[:, None, 1] + ec.space.nodes[:, 1])
        assert np.allclose(got, want, rtol=0,
                           atol=1e-11 * np.abs(want).max())
        others = [ClassicElementClass(k, TRI)] if k <= 4 else []
        if k == 2:
            others.append(EnrichedElementClass(k, TRI, (3,)))
        for ec in others:
            c = rng.normal(size=ec.poly.dim)
            p, lap_p = polynomial(ec.poly, c)
            for o in origins:
                got = ec.dof_values(lambda x, y: p(x - o[0], y - o[1]),
                                    lambda x, y: lap_p(x - o[0], y - o[1]),
                                    o[None, :])[0] @ ec.projection.T
                assert np.allclose(got[:ec.poly.dim], c, rtol=0,
                                   atol=1e-10 * np.abs(c).max())
                assert np.allclose(got[ec.poly.dim:], 0.0, atol=1e-10)

    def test_projection_matrix_shape_and_boundary_identity(self):
        k = 3
        ec = SfElementClass(k, TRI)
        P = ec.projection
        assert P.shape == (ec.space.dim, ec.ndof)
        assert np.allclose(P[:3 * k, :3 * k], np.eye(3 * k))

    def test_local_stiffness_symmetric_psd(self):
        for k in (1, 3, 6):
            ec = SfElementClass(k, TRI)
            K = ec.K_loc
            assert np.allclose(K, K.T)
            ev = np.linalg.eigvalsh(K)
            assert ev[0] > -1e-10
            # constants are in the kernel
            const = np.zeros(ec.ndof)
            const[:ec.n_boundary] = 1.0
            assert np.allclose(K @ const, 0.0, atol=1e-10)

    def test_interior_modes_have_unit_energy(self):
        ec = SfElementClass(4, TRI)
        S = ec.space.stiffness
        Pi = ec.projection[:, ec.n_boundary:]
        en = np.einsum("ia,ij,ja->a", Pi, S, Pi)
        assert np.allclose(en, 1.0, rtol=1e-10)

    def test_random_triangles_all_spd(self):
        # the coercivity lemma: on shape-regular triangles the kernel of
        # K_loc is exactly the constants.  The smallest lambda_1/lambda_max
        # measured on such triangles falls from 5.8e-2 (k=1) to 6.9e-6
        # (k=6), and |lambda_0|/lambda_max stays below 1.5e-15
        rng = np.random.default_rng(11)
        for k in range(1, 7):
            for _ in range(50):
                tri = random_ccw_triangle(rng)
                while min_angle_deg(tri) < 15.0:
                    tri = random_ccw_triangle(rng)
                ec = SfElementClass(k, tri - tri[0])
                ev, vec = np.linalg.eigh(ec.K_loc)
                const = np.zeros(ec.ndof)
                const[:ec.n_boundary] = 1.0 / np.sqrt(ec.n_boundary)
                assert abs(ev[0]) / ev[-1] < 1e-12
                assert abs(vec[:, 0] @ const) == pytest.approx(1.0,
                                                               abs=1e-12)
                assert ev[1] / ev[-1] > 1e-7


class TestAssembly:
    def test_assembled_matrix_symmetric(self):
        A, b, dm, _ = reduced_system("sf-hct", "irregular8", 3, 2)
        assert abs(A - A.T).max() < 1e-12 * abs(A).max()
        assert A.shape[0] == len(dm.free) == len(b)

    def test_dirichlet_elimination_counts(self):
        A, b, dm, _ = reduced_system("sf-hct", "uniform", 2, 2, f=None)
        m = dm.mesh
        n_boundary = int(m.boundary_vertex.sum()
                         + m.boundary_edge.sum())
        assert dm.total - A.shape[0] == n_boundary

    @pytest.mark.parametrize("k", range(1, 7))
    def test_dirichlet_flags(self, k):
        m = generate_mesh("irregular8", 3)
        dm = DofMap(m, k)
        assert dm.dirichlet.sum() == (m.boundary_vertex.sum()
                                      + (k - 1) * m.boundary_edge.sum())
        assert np.array_equal(dm.dirichlet, dirichlet_oracle(m, k))

    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_boundary_nodes_follow_the_global_numbering(self, family, k):
        # each element's local boundary nodes, put at its boundary slots of
        # element_dofs, must give every shared DOF one position; the
        # triangles are CCW, so the two elements at an interior edge walk
        # it in opposite directions
        m = generate_mesh(family, 3)
        dm = DofMap(m, k)
        slots = dm.element_dofs[:, :3 * k].ravel()
        nodes = np.concatenate([boundary_nodes(m.vertices[tri], k)
                                for tri in m.triangles])
        coords = np.full((dm.total, 2), np.nan)
        coords[slots] = nodes
        assert np.abs(coords[slots] - nodes).max() <= 1e-14
        held = np.bincount(slots, minlength=dm.total)
        assert np.count_nonzero(held[m.num_vertices:] == 2) \
            == (k - 1) * np.count_nonzero(~m.boundary_edge)
        # and the global numbering walks each edge from its lower vertex
        lo, hi = m.vertices[m.edges[:, 0]], m.vertices[m.edges[:, 1]]
        t = np.arange(1, k)[None, :, None] / k
        walk = (lo[:, None] + t * (hi - lo)[:, None]).reshape(-1, 2)
        assert np.array_equal(coords[:m.num_vertices], m.vertices)
        assert np.abs(coords[m.num_vertices:dm.interior_offset]
                      - walk).max(initial=0.0) <= 1e-14

    def test_unknown_load_rule_rejected(self):
        m = generate_mesh("uniform", 1)
        classes = _class_cache_build(m, 1)
        with pytest.raises(AssemblyError):
            _assemble(m, 1, classes, get_solution("sinsin").f,
                      load_rule="midpoint")

    def test_vem_load_rule_needs_laplacian_of_f(self):
        m = generate_mesh("uniform", 1)
        classes = _class_cache_build(m, 2)
        with pytest.raises(AssemblyError):
            _assemble(m, 2, classes, get_solution("sinsin").f,
                      load_rule="vem")


class TestSolutions:
    def test_polynomial_solution_reproduced_exactly(self):
        # u = x(1-x)y(1-y) lies in the projection space for k >= 4, so the
        # discrete solution with exactly integrated data is u itself; the
        # virtual interpolant of f = -Delta u (degree 2) is f, so the "vem"
        # load is exact as well
        prob = get_solution("bubble4")
        m = generate_mesh("uniform", 2)
        for k in (4, 5):
            for rule in ("exact", "vem"):
                sol = solve_sf_vem(m, k, prob, load_rule=rule)
                l2, h1 = sol.solution_field().error_norms(
                    sol.reference_field(prob))
                assert l2 < 1e-12
                assert h1 < 1e-11

    def test_h1_convergence_rate_at_least_k(self):
        for k, lo, hi in ((1, 5, 7), (2, 3, 5), (3, 3, 5)):
            errs = sf_errors("uniform", k, lo, hi)
            h1_slope = np.polyfit(
                -np.arange(hi - lo + 1) * np.log(2.0),
                np.log([e[1] for e in errs]), 1)[0]
            assert h1_slope >= k - 0.15

    def test_l2_convergence_rate_at_least_k_plus_1(self):
        for k, lo, hi in ((1, 5, 7), (2, 3, 5), (3, 3, 5)):
            errs = sf_errors("uniform", k, lo, hi)
            l2_slope = np.polyfit(
                -np.arange(hi - lo + 1) * np.log(2.0),
                np.log([e[0] for e in errs]), 1)[0]
            assert l2_slope >= k + 1 - 0.15

    def test_solver_paths_agree(self):
        prob = get_solution("sinsin")
        m = generate_mesh("irregular8", 2)
        d = solve_sf_vem(m, 2, prob, solver="direct")
        c = solve_sf_vem(m, 2, prob, solver="cg", tol=1e-13)
        e = solve_sf_vem(m, 2, prob, solver="dense")
        assert np.allclose(d.dofs, c.dofs, atol=1e-9)
        assert np.allclose(d.dofs, e.dofs, atol=1e-11)

    def test_error_norms_reject_mismatched_fields(self):
        prob = get_solution("sinsin")
        m = generate_mesh("uniform", 2)
        s2 = solve_sf_vem(m, 2, prob)
        s3 = solve_sf_vem(m, 3, prob)
        with pytest.raises(ValueError):
            s2.solution_field().error_norms(s3.reference_field(prob))
