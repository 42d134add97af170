import numpy as np
import pytest

from hctvem.hct import (HctError, HctLocalSpace, hct_dimension,
                        interpolate_exact_solution, project_hct)

TRI = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]])


class TestDimensionsAndNodes:
    @pytest.mark.parametrize("k,dim", [(1, 4), (2, 10), (3, 19), (4, 31),
                                       (5, 46), (6, 64)])
    def test_dimension_formula(self, k, dim):
        assert hct_dimension(k) == dim
        assert HctLocalSpace(k, TRI).dim == dim

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_first_3k_nodes_lie_on_the_boundary(self, k):
        sp = HctLocalSpace(k, TRI)
        assert sp.num_boundary == 3 * k
        # boundary nodes are convex combinations of two parent vertices
        for p in sp.nodes[:3 * k]:
            on_edge = False
            for a, b in ((0, 1), (1, 2), (2, 0)):
                d = TRI[b] - TRI[a]
                t = (p - TRI[a]) @ d / (d @ d)
                if np.allclose(TRI[a] + t * d, p, atol=1e-12) \
                        and -1e-12 <= t <= 1 + 1e-12:
                    on_edge = True
            assert on_edge
        # interior nodes are strictly inside the parent triangle
        J = np.column_stack([TRI[1] - TRI[0], TRI[2] - TRI[0]])
        lam = np.linalg.solve(J, (sp.nodes[3 * k:] - TRI[0]).T).T
        bary = np.column_stack([1 - lam.sum(axis=1), lam])
        assert np.all(bary > 1e-6)

    def test_degree_out_of_range_rejected(self):
        with pytest.raises(HctError):
            HctLocalSpace(0, TRI)
        with pytest.raises(HctError):
            HctLocalSpace(7, TRI)


class TestBasis:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_lagrange_property_at_nodes(self, k):
        sp = HctLocalSpace(k, TRI)
        assert np.allclose(sp.eval_basis(sp.nodes), np.eye(sp.dim),
                           atol=1e-10)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_partition_of_unity(self, k):
        sp = HctLocalSpace(k, TRI)
        rng = np.random.default_rng(0)
        lam = rng.dirichlet(np.ones(3), size=50)
        pts = lam @ TRI
        assert np.allclose(sp.eval_basis(pts).sum(axis=1), 1.0, atol=1e-11)

    def test_continuity_across_internal_edges(self):
        sp = HctLocalSpace(3, TRI)
        bc = sp.split.barycenter
        # points on the segment vertex-to-barycenter, approached from the
        # two adjacent sub-triangles
        for v in TRI:
            t = np.linspace(0.1, 0.9, 7)[:, None]
            seg = v + t * (bc - v)
            eps = 1e-9 * np.array([bc[1] - v[1], v[0] - bc[0]])
            left = sp.eval_basis(seg + eps)
            right = sp.eval_basis(seg - eps)
            assert np.allclose(left, right, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        # quad_gradients (behind the stiffness and the H1 norm) against
        # central differences of eval_basis; every quadrature point lies
        # inside its sub-triangle, farther than h from its edges
        sp = HctLocalSpace(2, TRI)
        h = 1e-6
        for p, g in zip(sp.quad_points, sp.quad_gradients):
            gx = sp.eval_basis(p + [h, 0]) - sp.eval_basis(p - [h, 0])
            gy = sp.eval_basis(p + [0, h]) - sp.eval_basis(p - [0, h])
            fd = np.stack([gx[0], gy[0]], axis=-1) / (2 * h)
            assert np.allclose(g, fd, atol=1e-6)


class TestStiffness:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_symmetric_psd_with_constant_null_space(self, k):
        sp = HctLocalSpace(k, TRI)
        S = sp.stiffness
        assert np.allclose(S, S.T)
        assert np.allclose(S @ np.ones(sp.dim), 0.0, atol=1e-10)
        ev = np.linalg.eigvalsh(S)
        assert ev[0] > -1e-10
        # exactly one zero eigenvalue (the constants)
        assert ev[1] > 1e-10 * ev[-1]

    def test_quadratic_energy_exact_for_known_function(self):
        # u = x^2 - y^2 on the unit right triangle: |u|_1^2 = int 4(x^2+y^2)
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sp = HctLocalSpace(2, tri)
        c = sp.nodes[:, 0] ** 2 - sp.nodes[:, 1] ** 2
        energy = c @ sp.stiffness @ c
        assert energy == pytest.approx(4.0 * 2.0 / 12.0, rel=1e-12)


class TestProjection:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_interpolation_reproduces_degree_k_polynomials(self, k):
        rng = np.random.default_rng(k)
        c = rng.normal(size=(k + 1) * (k + 2) // 2)
        from hctvem.polynomials import ScaledMonomialBasis
        poly = ScaledMonomialBasis(TRI.mean(axis=0), 1.0, k)
        lap_c = poly.laplacian_map().T @ c

        def u(x, y):
            return poly.values(np.column_stack([x, y])) @ c

        def lap_u(x, y):
            if k < 2:
                return np.zeros_like(np.asarray(x, dtype=float))
            return poly.lowered().values(np.column_stack([x, y])) @ lap_c

        sp = HctLocalSpace(k, TRI)
        f = interpolate_exact_solution(sp, u, lap_u)
        pts = np.random.default_rng(7).dirichlet(np.ones(3), 30) @ TRI
        assert np.allclose(f(pts), u(pts[:, 0], pts[:, 1]), atol=1e-10)

    def test_project_requires_boundary_value_count(self):
        sp = HctLocalSpace(2, TRI)
        with pytest.raises(HctError):
            sp.project(np.zeros(5))

    def test_project_hct_validates_laplacian_coefficients(self):
        sp = HctLocalSpace(3, TRI)
        with pytest.raises(HctError):
            project_hct(sp, np.zeros(9), laplacian_coeffs=np.ones(5))

    def test_zero_data_gives_zero_function(self):
        sp = HctLocalSpace(3, TRI)
        f = project_hct(sp, np.zeros(sp.num_boundary))
        pts = TRI.mean(axis=0)[None, :]
        assert np.allclose(f(pts), 0.0, atol=1e-14)

    def test_moments_integrate_against_basis(self):
        sp = HctLocalSpace(2, TRI)
        m = sp.moments(lambda x, y: np.ones_like(x))
        # sum of (1, phi_i) = integral of the partition of unity = area
        d1, d2 = TRI[1] - TRI[0], TRI[2] - TRI[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        assert m.sum() == pytest.approx(area, rel=1e-12)
