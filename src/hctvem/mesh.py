"""Triangular meshes of the unit square, the uniform and the slightly
irregular 8-triangle families, with the edge topology the DOF numbering
reads.  The barycentric macro split of a triangle is in hct."""

from dataclasses import dataclass

import numpy as np

MAX_LEVEL = 12

# Base pattern of the irregular family: 9 vertices, 8 triangles on the unit
# square.  Coordinates are in units of 1/4, so a tiling holds exact integer
# lattice points and deduplicates shared vertices without floating-point
# snapping.
_IRR8_QUARTERS = np.array([
    (0, 0), (2, 0), (4, 0),
    (0, 2), (3, 2), (4, 2),
    (0, 4), (2, 4), (4, 4),
], dtype=np.int64)
_IRR8_TRIANGLES = np.array([
    (0, 1, 3),
    (1, 4, 3),
    (1, 2, 4),
    (2, 5, 4),
    (5, 8, 4),
    (4, 8, 7),
    (4, 7, 6),
    (3, 4, 6),
], dtype=np.int64)


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class TriangleMesh:
    """Oriented triangle mesh on the unit square with edge topology."""

    vertices: np.ndarray          # (V, 2)
    triangles: np.ndarray         # (T, 3) CCW vertex indices
    edges: np.ndarray             # (E, 2) with lo < hi
    tri_edges: np.ndarray         # (T, 3) edge index of local edges 01,12,20
    boundary_vertex: np.ndarray   # (V,) bool
    boundary_edge: np.ndarray     # (E,) bool

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)


def signed_areas(coords):
    """(...,) signed areas of the triangles with vertices coords (..., 3,
    2), positive when CCW, from the cross product of the edges from the
    first vertex: it scales by exactly 2^(2e) with the vertices, as
    scale-free sf-hct needs, and np.linalg.det does not."""
    d1 = coords[..., 1, :] - coords[..., 0, :]
    d2 = coords[..., 2, :] - coords[..., 0, :]
    return 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])


def _unique_first_seen(keys):
    """np.unique of integer keys with the unique values numbered in order
    of first appearance: (first index of each, id of every key, counts)."""
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse], counts[order]


def _build_topology(vertices, triangles):
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    if np.any(signed_areas(vertices[triangles]) <= 0):
        raise MeshError("mesh contains a non-CCW or degenerate triangle")

    # half-edges in (triangle, local edge 01, 12, 20) order; edges are
    # numbered by first appearance in that order
    nxt = np.roll(triangles, -1, axis=1)
    lo = np.minimum(triangles, nxt).ravel()
    hi = np.maximum(triangles, nxt).ravel()
    first, inverse, counts = _unique_first_seen(lo * len(vertices) + hi)
    if np.any(counts > 2):
        raise MeshError("edge shared by more than two triangles")
    edges = np.column_stack([lo[first], hi[first]])
    boundary_edge = counts == 1
    boundary_vertex = np.zeros(len(vertices), dtype=bool)
    boundary_vertex[edges[boundary_edge].ravel()] = True

    return TriangleMesh(
        vertices=vertices, triangles=triangles, edges=edges,
        tri_edges=inverse.reshape(triangles.shape),
        boundary_vertex=boundary_vertex, boundary_edge=boundary_edge)


def is_integer(value):
    """An int or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_level(level):
    if not is_integer(level) or level < 1:
        raise MeshError(f"level must be a positive integer, got {level!r}")
    if level > MAX_LEVEL:
        raise MeshError(f"level {level} exceeds cap {MAX_LEVEL}")


def gen_uniform_mesh(level):
    """n x n squares (n = 2^(level-1)), each cut by its NW-SE diagonal."""
    _check_level(level)
    n = 2 ** (level - 1)
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    sw = j * (n + 1) + i
    se, nw = sw + 1, sw + n + 1
    # diagonal from (i, j+1) down to (i+1, j)
    triangles = np.column_stack([sw, se, nw, se, nw + 1, nw]).reshape(-1, 3)
    return _build_topology(vertices, triangles)


def gen_irregular8_mesh(level):
    """Tile 2^(level-1) x 2^(level-1) scaled copies of the 8-triangle base
    pattern, deduplicating shared vertices by exact integer coordinates in
    units of 1/(4n)."""
    _check_level(level)
    n = 2 ** (level - 1)
    ty, tx = np.divmod(np.arange(n * n, dtype=np.int64), n)
    points = (4 * np.column_stack([tx, ty])[:, None, :]
              + _IRR8_QUARTERS).reshape(-1, 2)
    first, inverse, _ = _unique_first_seen(
        points[:, 0] * (4 * n + 1) + points[:, 1])
    # exact integers divided once: the correctly rounded float of x/(4n)
    vertices = points[first] / (4 * n)
    triangles = inverse.reshape(n * n, 9)[:, _IRR8_TRIANGLES].reshape(-1, 3)
    return _build_topology(vertices, triangles)


FAMILIES = {"uniform": gen_uniform_mesh, "irregular8": gen_irregular8_mesh}


def generate_mesh(family, level):
    if family not in FAMILIES:
        raise MeshError(f"unknown mesh family {family!r}")
    return FAMILIES[family](level)


def export_mesh(mesh, path):
    """Plain text: header, vertex lines, triangle lines (0-based)."""
    with open(path, "w") as fh:
        fh.write(f"vertices {mesh.num_vertices} triangles "
                 f"{mesh.num_triangles}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"{a} {b} {c}\n")
