import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from conftest import eval_basis, polynomial, shape_regular_triangles

import hctvem
from hctvem import checks, hct, sf_vem
from hctvem.checks import TRI
from hctvem.cli import main
from hctvem.hct import HctLocalSpace, hct_dimension
from hctvem.mesh import generate_mesh
from hctvem.polynomials import AffineMonomialBasis
from hctvem.sf_vem import SfElementClass, _class_cache_build


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


class TestMacroSplit:
    def test_split_preserves_area_and_orientation(self):
        sp = HctLocalSpace(1, TRI)
        assert np.allclose(sp.barycenter, TRI.mean(axis=0))
        areas = []
        for sub in sp.sub_triangles:
            d1, d2 = sub[1] - sub[0], sub[2] - sub[0]
            areas.append(0.5 * (d1[0] * d2[1] - d1[1] * d2[0]))
        areas = np.array(areas)
        assert np.all(areas > 0)
        d1, d2 = TRI[1] - TRI[0], TRI[2] - TRI[0]
        assert np.isclose(areas.sum(), 0.5 * (d1[0] * d2[1] - d1[1] * d2[0]))


class TestBasis:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_lagrange_property_at_nodes(self, k):
        sp = HctLocalSpace(k, TRI)
        assert np.allclose(eval_basis(sp, sp.nodes), np.eye(sp.dim),
                           atol=1e-10)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_partition_of_unity(self, k):
        sp = HctLocalSpace(k, TRI)
        rng = np.random.default_rng(0)
        lam = rng.dirichlet(np.ones(3), size=50)
        pts = lam @ TRI
        assert np.allclose(eval_basis(sp, pts).sum(axis=1), 1.0, atol=1e-11)

    def test_continuity_across_internal_edges(self):
        sp = HctLocalSpace(3, TRI)
        bc = sp.barycenter
        # points on the segment vertex-to-barycenter, approached from the
        # two adjacent sub-triangles
        for v in TRI:
            t = np.linspace(0.1, 0.9, 7)[:, None]
            seg = v + t * (bc - v)
            eps = 1e-9 * np.array([bc[1] - v[1], v[0] - bc[0]])
            left = eval_basis(sp, seg + eps)
            right = eval_basis(sp, seg - eps)
            assert np.allclose(left, right, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        # quad_gradients (behind the stiffness and the H1 norm) against
        # central differences of eval_basis; every quadrature point lies
        # inside its sub-triangle, farther than h from its edges
        sp = HctLocalSpace(2, TRI)
        h = 1e-6
        for p, g in zip(sp.quad_points, sp.quad_gradients):
            gx = eval_basis(sp, p + [h, 0]) - eval_basis(sp, p - [h, 0])
            gy = eval_basis(sp, p + [0, h]) - eval_basis(sp, p - [0, h])
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
        # the live interpolant, SfElementClass.dof_values composed with
        # projection, evaluated off the nodes
        rng = np.random.default_rng(k)
        poly = AffineMonomialBasis(TRI.mean(axis=0), np.eye(2), k)
        u, lap_u = polynomial(poly, rng.normal(size=poly.dim))
        ec = SfElementClass(k, TRI)
        coeffs = ec.dof_values(u, lap_u, np.zeros((1, 2)))[0] \
            @ ec.projection.T
        pts = np.random.default_rng(7).dirichlet(np.ones(3), 30) @ TRI
        assert np.allclose(eval_basis(ec.space, pts) @ coeffs,
                           u(pts[:, 0], pts[:, 1]), atol=1e-10)

    def test_moments_integrate_against_basis(self):
        sp = HctLocalSpace(2, TRI)
        m = sp.quad_values.T @ sp.quad_weights
        # sum of (1, phi_i) = integral of the partition of unity = area
        d1, d2 = TRI[1] - TRI[0], TRI[2] - TRI[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        assert m.sum() == pytest.approx(area, rel=1e-12)


class TestAffineMap:
    """Every triangle's space is the unit triangle's mapped by x = v0 +
    J x_hat, built once per degree (sf_vem._unit_table)."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_mapped_space_matches_physical_build(self, k):
        # the largest difference measured is 2e-12 (quad_values, k = 6)
        for tri in shape_regular_triangles(k):
            assert checks.mapped_space(k, tri) == []

    @pytest.mark.parametrize("k", range(1, 7))
    def test_power_of_two_copy_has_identical_stiffness(self, k):
        ref = sf_vem._unit_table(k).space
        for tri in [TRI] + shape_regular_triangles(30 + k, n=3):
            want = HctLocalSpace(k, tri, ref)
            for j in (-7, -1, 3):
                got = HctLocalSpace(k, np.ldexp(tri, j), ref)
                assert got.stiffness.tobytes() == want.stiffness.tobytes()
                assert got.quad_weights.tobytes() \
                    == np.ldexp(want.quad_weights, 2 * j).tobytes()

    def test_reference_built_once_per_degree(self, monkeypatch):
        monkeypatch.setattr(sf_vem, "_unit_table",
                            cache(sf_vem._unit_table.__wrapped__))
        built = []
        own_build = HctLocalSpace._build_quadrature

        def spy(space, quad_degree):
            built.append((space.k, quad_degree))
            own_build(space, quad_degree)

        monkeypatch.setattr(HctLocalSpace, "_build_quadrature", spy)
        tris = shape_regular_triangles(3, n=4)
        for k in (1, 2, 4):
            for tri in tris:
                SfElementClass(k, tri)
        assert built == [(k, 2 * k + 6) for k in (1, 2, 4)]
        assert sf_vem._unit_table(2).space.coords.tobytes() \
            == hct.UNIT_TRIANGLE.tobytes()

    def test_nothing_built_at_import(self):
        src = str(Path(hctvem.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        # a bare import leaves the checks unloaded; loading builds nothing
        code = ("import sys, hctvem\n"
                "assert 'hctvem.checks' not in sys.modules\n"
                "import hctvem.cli, hctvem.checks\n"
                "from hctvem import sf_vem\n"
                "assert not sf_vem._unit_table.cache_info().currsize\n"
                "assert not sf_vem._GLOBAL_CACHE\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_every_shape_shares_the_reference_values(self, k):
        unit = sf_vem._unit_table(k).space
        ref = unit.quad_values
        assert not ref.flags.writeable
        spaces = [HctLocalSpace(k, tri, unit)
                  for tri in shape_regular_triangles(40, n=3)]
        for level in (1, 2):
            m = generate_mesh("irregular8", level)
            for ec, _ in _class_cache_build(m, k):
                assert ec.basis_values is ref
                spaces.append(ec.base.space)
        assert all(sp.quad_values is ref for sp in spaces)

    def test_verify_catches_a_wrong_map(self, monkeypatch, capsys):
        map_reference = HctLocalSpace._map

        def off(space, ref):
            map_reference(space, ref)
            space.quad_weights = space.quad_weights * (1 + 1e-8)

        monkeypatch.setattr(HctLocalSpace, "_map", off)
        # keep the classes built meanwhile out of the shared cache
        monkeypatch.setattr(sf_vem, "_GLOBAL_CACHE", {})
        assert main(["verify"]) == 1
        assert "mapped HCT stiffness off the physical" \
            in capsys.readouterr().err
