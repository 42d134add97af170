from collections import Counter
from functools import cache, cached_property
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (group_elements_oracle, p1_fem_stiffness, polynomial,
                      reduced_system, sf_errors, shape_regular_triangles)

from hctvem import checks, sf_vem
from hctvem.checks import TRI, hct_rule_interior_dofs
from hctvem.classic_vem import (DOF_MODES, ClassicElementClass,
                                EnrichedElementClass)
from hctvem.cli import main
from hctvem.dofmap import DofMap, boundary_nodes, edge_slots
from hctvem.mesh import _build_topology, generate_mesh
from hctvem.pipeline import (LOAD_RULES, AssemblyError, ElementClass,
                             assemble_load, assemble_matrix, build_classes,
                             group_elements, true_entries)
from hctvem.problems import get_solution
from hctvem.sf_vem import (SfElementClass, _assemble, _class_cache_build,
                           solve_sf_vem)
from hctvem.solvers import solve_dense_cholesky


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
        assert len(cache) == 2
        assert all(x[0].base is y[0].base for x, y in zip(a, b))
        assert {id(ec.base) for ec, _ in a} \
            == {id(ec) for ec in cache.values()}

    def test_classes_built_from_exact_vertices(self):
        # at 2^-12 the edge vectors need 13 decimals: a class built from
        # its 12-decimal key would sit up to 5e-13 off the mesh
        base = generate_mesh("irregular8", 2)
        m = _build_topology(np.ldexp(base.vertices, -12), base.triangles)
        v = m.vertices[m.triangles]
        for ec, idx in _class_cache_build(m, 2):
            assert same_bits(ec.verts, v[idx[0]] - v[idx[0], 0])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def irregular8_shapes():
    m = generate_mesh("irregular8", 1)
    v = m.vertices[m.triangles]
    return [v[idx[0]] - v[idx[0], 0] for idx in group_elements(m).values()]


class TestScaleFreeClasses:
    """The class cache rests on the element being scale-free: a copy
    scaled by 2^-j has the same projection and K_loc bits, and its
    other arrays scale by exact powers of two."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_scaled_copy(self, k):
        for verts in [TRI] + irregular8_shapes():
            for j in (1, 5):
                a = SfElementClass(k, verts)
                b = SfElementClass(k, np.ldexp(verts, -j))
                for name in ("K_loc", "projection"):
                    assert same_bits(getattr(b, name), getattr(a, name))
                assert same_bits(b.error_factors[1], a.error_factors[1])
                assert same_bits(b.error_factors[0],
                                 np.ldexp(a.error_factors[0], -j))
                for x, y in [(b.quad_weights, a.quad_weights),
                             (b.load_matrix, a.load_matrix),
                             (b.interp_load[1], a.interp_load[1]),
                             (b.vem_load_matrix, a.vem_load_matrix)]:
                    assert same_bits(x, np.ldexp(y, -2 * j))

    # every array the pipeline reads from a class
    READ = ("verts", "diameter", "barycenter", "boundary_nodes",
            "n_boundary", "ndof", "quad_points", "quad_weights",
            "interior_scale", "projection", "basis_values", "K_loc",
            "load_matrix", "vem_load_matrix")

    @pytest.mark.parametrize("family,levels,shapes",
                             [("irregular8", range(1, 5), 8),
                              ("uniform", range(2, 6), 2)])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_level_classes_equal_fresh_builds(self, family, levels,
                                              shapes, k):
        prob = get_solution("sinsin")
        cache = {}
        for level in levels:
            m = generate_mesh(family, level)
            v = m.vertices[m.triangles]
            for ec, idx in _class_cache_build(m, k, cache):
                fresh = SfElementClass(k, v[idx[0]] - v[idx[0], 0])
                for name in self.READ:
                    assert same_bits(getattr(ec, name),
                                     getattr(fresh, name)), name
                for got, want in zip(
                        ec.interp_load + ec.error_factors,
                        fresh.interp_load + fresh.error_factors):
                    assert same_bits(got, want)
                origins = v[idx, 0]
                assert same_bits(
                    ec.dof_values(prob.u, prob.lap_u, origins),
                    fresh.dof_values(prob.u, prob.lap_u, origins))
        assert len(cache) == shapes

    def test_operators_built_once_per_shape(self, monkeypatch):
        # a sweep of k=6 irregular8 levels 1..4 has 32 level classes of 8
        # shapes; each level class scales its base's load operators and
        # interior moments, so each is computed once per shape
        built = []

        def spy(owner, name):
            compute = owner.__dict__[name].func

            def counted(ec):
                built.append(name)
                return compute(ec)

            prop = cached_property(counted)
            prop.__set_name__(owner, name)
            monkeypatch.setattr(owner, name, prop)

        names = ("load_matrix", "interp_load", "vem_load_matrix")
        for name in names:
            spy(ElementClass, name)
        spy(SfElementClass, "moments")
        prob = get_solution("sinsin")
        cache, level_classes = {}, 0
        for level in range(1, 5):
            m = generate_mesh("irregular8", level)
            classes = _class_cache_build(m, 6, cache)
            for rule in LOAD_RULES:
                assemble_load(DofMap(m, 6), classes, prob.f, rule,
                              prob.lap_f)
            level_classes += len(classes)
        assert level_classes == 32 and len(cache) == 8
        assert Counter(built) == dict.fromkeys(names + ("moments",), 8)


class TestInteriorDecoupling:
    """sf-hct's kappa rests on K_ib = 0: the boundary columns of the
    projection are discrete-harmonic in the HCT space, so the reduced
    system is S plus the interior blocks K_ii on its diagonal."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_interior_block_does_not_couple(self, k):
        for tri in shape_regular_triangles(21):
            assert checks.interior_decoupling(k, tri - tri[0]) == []

    @pytest.mark.parametrize("k", range(1, 7))
    def test_interior_spectrum(self, k):
        ec = SfElementClass(k, TRI)
        nb = ec.n_boundary
        if k == 1:
            assert ec.interior_spectrum == (np.inf, -np.inf)
            return
        eig = np.linalg.eigvalsh(ec.K_loc[nb:, nb:])
        assert ec.interior_spectrum == (eig[0], eig[-1])
        assert 0 < eig[0] <= eig[-1]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_scaled_class_carries_its_bases_spectrum(self, k):
        # the check compares the interior spectrum, among other arrays
        for shape in irregular8_shapes():
            assert checks.scale_free_class(k, shape) == []


class TestLocalProjection:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_polynomial_dofs_reproduced_through_projection(self, k):
        # dof_values(p, Delta p, origins) @ projection.T is p on every
        # translated copy: sf-hct by HCT node values (verify's check, on
        # other draws), classic (k <= 4) and enriched (k = 2, degree 3) by
        # the coefficients of their P_k basis, whose origin moves with it
        assert checks.pk_reproduction(k, TRI, seed=k) == []
        rng = np.random.default_rng(k)
        origins = rng.uniform(-2.0, 2.0, (3, 2))
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
        # the coercivity lemma: the kernel of K_loc is exactly the
        # constants.  The smallest lambda_1/lambda_max measured falls from
        # 5.8e-2 (k=1) to 6.9e-6 (k=6) on shape-regular triangles, and to
        # 2.6e-8 (k=6, flat) on needles (apex angle theta) and flat
        # triangles (two angles theta) down to theta = 0.1 degrees, whose
        # bound was set before the run.  |lambda_0|/lambda_max < 1.5e-15
        regular = shape_regular_triangles(11, n=300)
        degenerate = [np.array([[0.0, 0.0], [1.0, 0.0], apex])
                      for t in np.radians([30.0, 5.0, 1.0, 0.1])
                      for apex in ([np.cos(t), np.sin(t)],
                                   [0.5, 0.5 * np.tan(t)])]
        for k in range(1, 7):
            for tris, bound in ((regular[50 * (k - 1):50 * k], 1e-7),
                                (degenerate, 1e-9)):
                for tri in tris:
                    ec = SfElementClass(k, tri - tri[0])
                    ev, vec = np.linalg.eigh(ec.K_loc)
                    const = np.zeros(ec.ndof)
                    const[:ec.n_boundary] = 1.0 / np.sqrt(ec.n_boundary)
                    assert abs(ev[0]) / ev[-1] < 1e-12
                    assert abs(vec[:, 0] @ const) \
                        == pytest.approx(1.0, abs=1e-12)
                    assert ev[1] / ev[-1] > bound


class TestAssembly:
    def test_assembled_matrix_symmetric(self):
        A, b, dm, _ = reduced_system("sf-hct", "irregular8", 3, 2)
        assert abs(A - A.T).max() < 1e-12 * abs(A).max()
        assert A.shape[0] == dm.n_free == len(b)

    def test_dirichlet_elimination_counts(self):
        A, b, dm, _ = reduced_system("sf-hct", "uniform", 2, 2)
        m = dm.mesh
        n_boundary = int(m.boundary_vertex.sum()
                         + m.boundary_edge.sum())
        assert dm.total - A.shape[0] == n_boundary

    @staticmethod
    def node_coordinates(m, dm):
        """(dm.total, 2) coordinates of each vertex and edge DOF, put there
        by the elements' local boundary nodes (NaN for interior DOFs), and
        (dm.total,) how many elements hold each DOF."""
        k = dm.k
        slots = dm.element_dofs[:, :3 * k].ravel()
        nodes = np.concatenate([boundary_nodes(m.vertices[tri], k)
                                for tri in m.triangles])
        coords = np.full((dm.total, 2), np.nan)
        coords[slots] = nodes
        assert np.abs(coords[slots] - nodes).max() <= 1e-14
        return coords, np.bincount(slots, minlength=dm.total)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_dirichlet_flags(self, k):
        # the Dirichlet DOFs are the ones from n_free on: exactly the
        # vertex and edge nodes on the boundary of the unit square
        m = generate_mesh("irregular8", 3)
        dm = DofMap(m, k)
        coords, held = self.node_coordinates(m, dm)
        on_boundary = np.any((coords == 0.0) | (coords == 1.0), axis=1)
        assert np.all(held[dm.n_free:] > 0)
        assert np.array_equal(np.flatnonzero(on_boundary),
                              np.arange(dm.n_free, dm.total))
        assert dm.total - dm.n_free == (m.boundary_vertex.sum()
                                        + (k - 1) * m.boundary_edge.sum())

    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_skeleton_dofs_come_first(self, family, k):
        # [0, n_skeleton): the free vertex and edge DOFs, then the
        # interior DOFs up to n_free
        m = generate_mesh(family, 3)
        dm = DofMap(m, k)
        _, held = self.node_coordinates(m, dm)
        assert np.all(held[:dm.n_skeleton] > 0)
        assert np.all(held[dm.n_skeleton:dm.n_free] == 0)
        assert np.array_equal(np.sort(dm.element_dofs[:, 3 * k:].ravel()),
                              np.arange(dm.n_skeleton, dm.n_free))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_free_vertex_dof_j_is_the_jth_interior_vertex(self, k):
        m = generate_mesh("irregular8", 3)
        dm = DofMap(m, k)
        dof = np.empty(m.num_vertices, dtype=np.int64)
        dof[m.triangles] = dm.element_dofs[:, :3]
        interior = ~m.boundary_vertex
        assert np.array_equal(dof[interior],
                              np.arange(np.count_nonzero(interior)))
        assert np.all(dof[m.boundary_vertex] >= dm.n_free)

    def test_edge_slots(self):
        # vertices first, then the edge nodes edge by edge, each edge
        # walked from its first vertex
        assert edge_slots(1).tolist() == [[0, 1], [1, 2], [2, 0]]
        assert edge_slots(3).tolist() == [[0, 3, 4, 1], [1, 5, 6, 2],
                                          [2, 7, 8, 0]]

    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_boundary_nodes_follow_the_global_numbering(self, family, k):
        # each element's local boundary nodes, put at its boundary slots of
        # element_dofs, must give every shared DOF one position; the
        # triangles are CCW, so the two elements at an interior edge walk
        # it in opposite directions
        m = generate_mesh(family, 3)
        dm = DofMap(m, k)
        coords, held = self.node_coordinates(m, dm)
        edge_dofs = dm.edge_dofs.ravel()
        assert np.count_nonzero(held[edge_dofs] == 2) \
            == (k - 1) * np.count_nonzero(~m.boundary_edge)
        # and the global numbering walks each edge from its lower vertex
        lo, hi = m.vertices[m.edges[:, 0]], m.vertices[m.edges[:, 1]]
        t = np.arange(1, k)[None, :, None] / k
        walk = (lo[:, None] + t * (hi - lo)[:, None]).reshape(-1, 2)
        assert np.array_equal(coords[dm.vertex_dofs], m.vertices)
        assert np.abs(coords[edge_dofs] - walk).max(initial=0.0) <= 1e-14

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
        e = solve_dense_cholesky(d.matrix, d.load)
        assert np.allclose(d.dofs, c.dofs, atol=1e-9)
        assert np.allclose(d.dofs[:d.dofmap.n_free], e, atol=1e-11)

    def test_error_norms_reject_mismatched_fields(self):
        prob = get_solution("sinsin")
        m = generate_mesh("uniform", 2)
        s2 = solve_sf_vem(m, 2, prob)
        s3 = solve_sf_vem(m, 3, prob)
        with pytest.raises(ValueError):
            s2.solution_field().error_norms(s3.reference_field(prob))


class TestMomentRule:
    """The interior DOFs take the moments of -Delta g by one rule of
    degree 2k + 6 on the parent triangle, mapped from the unit
    triangle's, in place of the HCT split's three sub-triangle rules."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_polynomial_moments_match_the_hct_rule(self, k):
        for tri in shape_regular_triangles(100 + k, n=5):
            assert checks.parent_rule_moments(k, tri) == []

    @pytest.mark.parametrize("k", range(2, 7))
    def test_sinsin_moments_match_the_hct_rule(self, k):
        # bound set before the run: 1e-10 relative to the largest DOF
        prob = get_solution("sinsin")
        m = generate_mesh("irregular8", 3)
        v0 = m.vertices[m.triangles[:, 0]]
        diff = scale = 0.0
        for ec, idx in _class_cache_build(m, k, {}):
            got = ec.interior_dofs(prob.u, prob.lap_u, v0[idx])
            want = hct_rule_interior_dofs(ec, prob.lap_u, v0[idx])
            diff = max(diff, np.abs(got - want).max())
            scale = max(scale, np.abs(want).max())
        assert diff <= 1e-10 * scale

    @pytest.mark.parametrize("e", [-3, 2])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_scaled_class_moments_equal_a_fresh_build(self, k, e):
        assert checks.scale_free_class(k, TRI, e, seed=k) == []

    def test_unit_rule_built_once_per_degree(self, monkeypatch):
        monkeypatch.setattr(sf_vem, "_unit_table",
                            cache(sf_vem._unit_table.__wrapped__))
        built = []
        rule = sf_vem.quad_rule_triangle

        def spy(degree):
            built.append(degree)
            return rule(degree)

        monkeypatch.setattr(sf_vem, "quad_rule_triangle", spy)
        prob = get_solution("sinsin")
        for k in (2, 3, 6):
            shapes = {}
            for level in (1, 2):
                m = generate_mesh("irregular8", level)
                v0 = m.vertices[m.triangles[:, 0]]
                for ec, idx in _class_cache_build(m, k, shapes):
                    ec.interior_dofs(prob.u, prob.lap_u, v0[idx])
            for ec in shapes.values():
                assert ec.moment_points.shape == ((k + 4) ** 2, 2)
        assert built == [10, 12, 18]
        for k in (2, 3, 6):
            table = sf_vem._unit_table(k)
            space = table.space
            assert not any(a.flags.writeable for a in [
                space.quad_values, space.boundary_index,
                space.bubble_index, *space.sub_l2g, *space.sub_coeffs,
                *table[1:]])

    def test_verify_catches_a_low_degree_moment_rule(self, monkeypatch,
                                                     capsys):
        rule = sf_vem.quad_rule_triangle
        monkeypatch.setattr(sf_vem, "quad_rule_triangle",
                            lambda degree: rule(degree - 8))
        monkeypatch.setattr(sf_vem, "_unit_table",
                            cache(sf_vem._unit_table.__wrapped__))
        # keep the classes built meanwhile out of the shared cache
        monkeypatch.setattr(sf_vem, "_GLOBAL_CACHE", {})
        assert main(["verify"]) == 1
        assert "parent-rule interior DOFs off the HCT rule's" \
            in capsys.readouterr().err


def assemble_matrix_int64(dm, classes, skeleton=False):
    """The reduced matrix from int64 triplets built by np.repeat and
    np.tile, less the element entries |K_ij| <= 1e-12 sqrt(K_ii K_jj):
    the reference that assemble_matrix's int32 triplets from broadcast
    views must match bit for bit."""
    n = dm.n_skeleton if skeleton else dm.n_free
    rows, cols, vals = [], [], []
    for ec, idx in classes:
        K = ec.condensed[2] if skeleton else ec.K_loc
        m = len(K)
        gd = dm.element_dofs[idx][:, :m].astype(np.int64)
        free = gd < n
        root = np.sqrt(K.diagonal())
        true = np.abs(K) > 1e-12 * (root[:, None] * root[None, :])
        keep = np.repeat(free, m, axis=1) & np.tile(free, (1, m)) \
            & true.ravel()
        rows.append(np.repeat(gd, m, axis=1)[keep])
        cols.append(np.tile(gd, (1, m))[keep])
        vals.append(np.broadcast_to(K.ravel(), keep.shape)[keep])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsc()


class TestSampleAndAssembly:
    """sample forms x and y without an (nE, npts, 2) array, and
    assemble_matrix its triplets in int32 from broadcast views; both give
    the bits of the straightforward forms."""

    @pytest.mark.parametrize("element", [SfElementClass,
                                         ClassicElementClass])
    def test_sample_equals_g_at_the_translated_points(self, element):
        ec = element(3, TRI)
        origins = np.random.default_rng(3).uniform(-1.0, 2.0, (17, 2))
        sinsin, bubble = get_solution("sinsin"), get_solution("bubble4")
        # bubble4's lap_f broadcasts a constant to the shape of x and y
        funcs = [sinsin.u, sinsin.lap_u, sinsin.f, bubble.u, bubble.lap_f]
        point_sets = [ec.quad_points, ec.boundary_nodes,
                      ec.interp_load[0]]
        if isinstance(ec, SfElementClass):
            point_sets.append(ec.moment_points)
        for points in point_sets:
            pts = origins[:, None, :] + points
            for g in funcs:
                want = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
                got = ec.sample(g, origins, points)
                assert got.shape == (len(origins), len(points))
                assert same_bits(got, want)

    @pytest.mark.parametrize("skeleton", [True, False],
                             ids=["skeleton", "full"])
    @pytest.mark.parametrize("method,k,family", [
        pytest.param(method, k, family, id=f"{method}-{k}" + (
            "" if family == "irregular8" else f"-{family}"))
        for method, k, family in [
            ("sf-hct", 1, "irregular8"), ("sf-hct", 3, "irregular8"),
            ("sf-hct", 6, "irregular8"), ("classic", 3, "irregular8"),
            ("sf-hct", 1, "uniform"), ("sf-hct", 2, "uniform"),
            ("enriched", 2, "irregular8")]])
    def test_assembly_equals_the_int64_reference(self, method, k, family,
                                                  skeleton):
        m = generate_mesh(family, 3)
        if method == "sf-hct":
            classes = _class_cache_build(m, k, {})
        elif method == "classic":
            classes = build_classes(
                m, lambda local: ClassicElementClass(k, local))
        else:
            classes = build_classes(
                m, lambda local: EnrichedElementClass(k, local, (k + 1,)))
        dm = DofMap(m, k)
        got = assemble_matrix(dm, classes, skeleton=skeleton)
        want = assemble_matrix_int64(dm, classes, skeleton=skeleton)
        assert got.format == want.format == "csc"
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert same_bits(getattr(got, name), getattr(want, name)), name

    def test_assembly_rejects_dofs_beyond_int32(self):
        m = generate_mesh("uniform", 1)
        classes = _class_cache_build(m, 2, {})
        real = DofMap(m, 2)
        dm = SimpleNamespace(n_skeleton=real.n_skeleton,
                             n_free=real.n_free, total=2 ** 31,
                             element_dofs=real.element_dofs)
        with pytest.raises(AssemblyError, match="int32"):
            assemble_matrix(dm, classes, skeleton=True)


def suite_classes(method, mesh):
    """[(setting, classes)] of the method on mesh at every degree and DOF
    mode the suite runs it with."""
    if method == "sf-hct":
        return [(f"k={k}", _class_cache_build(mesh, k, {}))
                for k in range(1, 7)]
    if method == "classic":
        return [(f"k={k} {mode} alpha={alpha}", build_classes(
            mesh, lambda lv: ClassicElementClass(k, lv, mode, alpha)))
            for k in range(1, 5) for mode in DOF_MODES
            for alpha in (0.0, -1.0, -2.0)]
    degrees = [(k, (k + 1,)) for k in range(1, 5)] + [(5, (6, 7, 8, 9, 10))]
    return [(f"k={k} harmonics {h}", build_classes(
        mesh, lambda lv: EnrichedElementClass(k, lv, h)))
        for k, h in degrees]


class TestTrueEntries:
    """Assembly drops the element entries that are the round-off of a
    true zero (pipeline.true_entries), so the assembled pattern is the
    element's true stencil."""

    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    @pytest.mark.parametrize("method", ["sf-hct", "classic", "enriched"])
    def test_round_off_and_true_entries_lie_far_apart(self, method, family):
        # bounds set before the run, on |K_ij| / sqrt(K_ii K_jj) of K_loc
        # and S_loc: each dropped entry <= 1e-14 and each kept one >= 1e-6.
        # The one exception: the five-degree harmonic enrichment at k = 5,
        # whose K_ii on irregular8's isosceles shapes holds round-off of
        # 1.6e-14 (measured); it is held to a tenth of the cut
        for setting, classes in suite_classes(method, generate_mesh(family,
                                                                    3)):
            for ec, _ in classes:
                dropped_bound = 1e-13 if (method, ec.k) == ("enriched", 5) \
                    else 1e-14
                for K in (ec.K_loc, ec.condensed[2]):
                    d = K.diagonal()
                    scaled = np.abs(K) / np.sqrt(np.outer(d, d))
                    true = true_entries(K)
                    assert scaled[~true].max(initial=0.0) <= dropped_bound, \
                        setting
                    assert scaled[true].min() >= 1e-6, setting

    @pytest.mark.parametrize("level", [3, 5])
    def test_uniform_degree_one_is_the_five_point_stencil(self, level):
        m = generate_mesh("uniform", level)
        dm = DofMap(m, 1)
        S = assemble_matrix(dm, _class_cache_build(m, 1, {}), skeleton=True)
        F = p1_fem_stiffness(m)
        side = 2 ** (level - 1) - 1          # interior vertices a side
        assert S.shape == (side ** 2, side ** 2)
        assert S.nnz == 5 * side ** 2 - 4 * side
        assert ((S != 0) != (F != 0)).nnz == 0
        assert abs(S - F).max() <= 1e-14 * abs(F).max()

    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    @pytest.mark.parametrize("method,k", [("sf-hct", k) for k in range(2, 7)]
                             + [("classic", 3), ("enriched", 2)])
    def test_interior_coupling_block(self, method, k, family):
        # sf-hct's K_ib vanishes, so its A is S plus the blocks K_ii on its
        # diagonal; the classic and enriched K_ib are of order one
        A, _, dm, _ = reduced_system(method, family, k, 3)
        n_s = dm.n_skeleton
        coupling = (A[:n_s, n_s:].nnz, A[n_s:, :n_s].nnz)
        if method == "sf-hct":
            assert coupling == (0, 0)
        else:
            assert min(coupling) > 0
