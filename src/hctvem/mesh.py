"""Triangular meshes of the unit square: the uniform family and the
slightly irregular 8-triangle family, plus the barycentric macro split."""

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
    edge_tris: np.ndarray         # (E, 2) adjacent triangles, -1 if none
    tri_edges: np.ndarray         # (T, 3) edge index of local edges 01,12,20
    boundary_vertex: np.ndarray   # (V,) bool
    boundary_edge: np.ndarray     # (E,) bool
    level: int
    h_max: float
    family: str = "custom"

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    def triangle_coords(self, t):
        return self.vertices[self.triangles[t]]

    def signed_areas(self):
        v = self.vertices[self.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


@dataclass(frozen=True)
class MacroSplit:
    """Barycentric split of one triangle into three CCW sub-triangles."""

    barycenter: np.ndarray
    sub_triangles: np.ndarray     # (3, 3, 2) coordinates


def _unique_first_seen(keys):
    """np.unique of integer keys with the unique values numbered in order
    of first appearance: (first index of each, id of every key, counts)."""
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse], counts[order]


def _build_topology(vertices, triangles, level, family):
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)

    v = vertices[triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if np.any(areas <= 0):
        raise MeshError("mesh contains a non-CCW or degenerate triangle")

    # half-edges in (triangle, local edge 01, 12, 20) order; edges are
    # numbered by first appearance in that order
    nxt = np.roll(triangles, -1, axis=1)
    lo = np.minimum(triangles, nxt).ravel()
    hi = np.maximum(triangles, nxt).ravel()
    first, inverse, counts = _unique_first_seen(lo * len(vertices) + hi)
    if np.any(counts > 2):
        raise MeshError("edge shared by more than two triangles")
    tri_edges = inverse.reshape(triangles.shape)
    edges = np.column_stack([lo[first], hi[first]])
    edge_tris = np.full((len(first), 2), -1, dtype=np.int64)
    edge_tris[:, 0] = first // 3
    second = np.ones(len(lo), dtype=bool)
    second[first] = False
    edge_tris[inverse[second], 1] = np.flatnonzero(second) // 3
    boundary_edge = edge_tris[:, 1] == -1
    boundary_vertex = np.zeros(len(vertices), dtype=bool)
    boundary_vertex[edges[boundary_edge].ravel()] = True

    lengths = np.linalg.norm(
        vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1)
    h_max = float(lengths.max())

    return TriangleMesh(
        vertices=vertices, triangles=triangles, edges=edges,
        edge_tris=edge_tris, tri_edges=tri_edges,
        boundary_vertex=boundary_vertex, boundary_edge=boundary_edge,
        level=level, h_max=h_max, family=family)


def _check_level(level):
    if (isinstance(level, bool) or not isinstance(level, (int, np.integer))
            or level < 1):
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
    return _build_topology(vertices, triangles, level, "uniform")


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
    return _build_topology(vertices, triangles, level, "irregular8")


def macro_split(coords):
    """Split a triangle at its barycenter into 3 CCW sub-triangles."""
    coords = np.asarray(coords, dtype=float)
    bc = coords.mean(axis=0)
    subs = np.array([
        [coords[0], coords[1], bc],
        [coords[1], coords[2], bc],
        [coords[2], coords[0], bc],
    ])
    return MacroSplit(barycenter=bc, sub_triangles=subs)


def generate_mesh(family, level):
    if family == "uniform":
        return gen_uniform_mesh(level)
    if family == "irregular8":
        return gen_irregular8_mesh(level)
    raise MeshError(f"unknown mesh family {family!r}")


def export_mesh(mesh, path):
    """Plain text: header, vertex lines, triangle lines (0-based)."""
    with open(path, "w") as fh:
        fh.write(f"vertices {mesh.num_vertices} triangles "
                 f"{mesh.num_triangles}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"{a} {b} {c}\n")
