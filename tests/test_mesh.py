import dataclasses

import numpy as np
import pytest

from conftest import (irregular8_mesh_oracle, topology_oracle,
                      uniform_mesh_oracle)

from hctvem.mesh import (MAX_LEVEL, MeshError, _build_topology, export_mesh,
                         gen_irregular8_mesh, gen_uniform_mesh,
                         generate_mesh, signed_areas)


def assert_mesh_matches_oracle(mesh, expected):
    assert set(expected) == {f.name for f in dataclasses.fields(mesh)}
    for name, want in expected.items():
        got = getattr(mesh, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


class TestUniformFamily:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_counts(self, level):
        n = 2 ** (level - 1)
        m = gen_uniform_mesh(level)
        assert m.num_vertices == (n + 1) ** 2
        assert m.num_triangles == 2 * n * n

    def test_all_triangles_ccw_and_cover_unit_square(self):
        m = gen_uniform_mesh(3)
        areas = signed_areas(m.vertices[m.triangles])
        assert np.all(areas > 0)
        assert np.isclose(areas.sum(), 1.0)


class TestIrregular8Family:
    def test_level_1_is_the_8_triangle_pattern(self):
        m = gen_irregular8_mesh(1)
        assert m.num_triangles == 8
        assert m.num_vertices == 9

    def test_level_2_tiles_and_deduplicates(self):
        m = gen_irregular8_mesh(2)
        assert m.num_triangles == 32
        # 4 tiles x 9 vertices minus shared tile-boundary vertices
        assert m.num_vertices == 25

    def test_all_triangles_ccw_and_cover_unit_square(self):
        m = gen_irregular8_mesh(2)
        areas = signed_areas(m.vertices[m.triangles])
        assert np.all(areas > 0)
        assert np.isclose(areas.sum(), 1.0)

    def test_contains_noncongruent_shapes(self):
        m = gen_irregular8_mesh(1)
        areas = np.round(signed_areas(m.vertices[m.triangles]), 12)
        assert len(set(areas)) > 1


class TestTopology:
    @pytest.mark.parametrize("family", ["uniform", "irregular8"])
    def test_edge_triangle_consistency(self, family):
        m = generate_mesh(family, 2)
        # every boundary edge lies in one triangle, every interior edge
        # in exactly two
        uses = np.bincount(m.tri_edges.ravel(), minlength=m.num_edges)
        assert np.array_equal(uses, np.where(m.boundary_edge, 1, 2))
        # tri_edges round trip: each triangle lists its own edges
        for t in range(m.num_triangles):
            tri = set(m.triangles[t])
            for e in m.tri_edges[t]:
                assert set(m.edges[e]) <= tri

    def test_boundary_vertices_on_square_boundary(self):
        m = generate_mesh("irregular8", 2)
        v = m.vertices[m.boundary_vertex]
        on_edge = (np.isclose(v, 0.0) | np.isclose(v, 1.0)).any(axis=1)
        assert on_edge.all()
        inner = m.vertices[~m.boundary_vertex]
        assert np.all((inner > 0) & (inner < 1))


class TestAgainstLoopOracle:
    """The array code reproduces the per-triangle loops bit for bit: vertex
    order, edge numbering, triangle-edge map and boundary flags."""

    @pytest.mark.parametrize("level", range(1, 9))
    def test_uniform(self, level):
        vertices, triangles = uniform_mesh_oracle(level)
        assert_mesh_matches_oracle(gen_uniform_mesh(level),
                                   topology_oracle(vertices, triangles))

    @pytest.mark.parametrize("level", range(1, 8))
    def test_irregular8(self, level):
        vertices, triangles = irregular8_mesh_oracle(level)
        assert_mesh_matches_oracle(gen_irregular8_mesh(level),
                                   topology_oracle(vertices, triangles))

    def test_relabelled_irregular8(self):
        rng = np.random.default_rng(3)
        m = gen_irregular8_mesh(3)
        new_id = rng.permutation(m.num_vertices)
        vertices = np.empty_like(m.vertices)
        vertices[new_id] = m.vertices
        triangles = new_id[m.triangles][rng.permutation(m.num_triangles)]
        assert_mesh_matches_oracle(_build_topology(vertices, triangles),
                                   topology_oracle(vertices, triangles))


class TestValidationAndExport:
    @pytest.mark.parametrize("bad", [0, -1, MAX_LEVEL + 1, 1.5, "2",
                                     True, False])
    def test_bad_levels_rejected(self, bad):
        with pytest.raises(MeshError):
            gen_uniform_mesh(bad)

    def test_clockwise_triangle_rejected(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="non-CCW"):
            _build_topology(vertices, [(0, 2, 1)])

    def test_edge_shared_by_three_triangles_rejected(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0],
                             [0.5, 2.0], [0.5, 3.0]])
        with pytest.raises(MeshError, match="more than two triangles"):
            _build_topology(vertices, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])

    def test_unknown_family_rejected(self):
        with pytest.raises(MeshError):
            generate_mesh("hexagonal", 1)

    def test_export_roundtrip_header(self, tmp_path):
        m = gen_irregular8_mesh(1)
        path = tmp_path / "mesh.txt"
        export_mesh(m, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "vertices 9 triangles 8"
        assert len(lines) == 1 + 9 + 8
        verts = np.array([[float(t) for t in ln.split()]
                          for ln in lines[1:10]])
        assert np.allclose(verts, m.vertices)
