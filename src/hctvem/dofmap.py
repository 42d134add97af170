"""Global DOF numbering shared by all three methods: vertex values, k-1
uniform nodes per edge (walked from the lower vertex index), and
dim P_{k-2} interior DOFs per element; and the local order of the
boundary nodes that the numbering follows."""

import numpy as np


def boundary_nodes(verts, k):
    """(3k, 2) boundary nodes of the triangle verts in local DOF order:
    the three vertices, then k-1 uniform nodes per edge 01, 12, 20, walked
    from the edge's first vertex."""
    v = np.asarray(verts, dtype=float)
    t = np.arange(1, k)[:, None] / k
    edges = (v[a] + t * (v[b] - v[a]) for a, b in ((0, 1), (1, 2), (2, 0)))
    return np.concatenate([v, *edges])


class DofMap:
    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = k
        self.n_edge = k - 1
        self.n_interior = k * (k - 1) // 2
        V, E, T = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
        self.edge_offset = V
        self.interior_offset = V + E * self.n_edge
        self.total = V + E * self.n_edge + T * self.n_interior

        self.dirichlet = np.zeros(self.total, dtype=bool)
        self.dirichlet[:V] = mesh.boundary_vertex
        self.dirichlet[self.edge_offset:self.interior_offset] = np.repeat(
            mesh.boundary_edge, self.n_edge)
        self.free = np.where(~self.dirichlet)[0]

        self.element_dofs = self._element_dofs()

    def _element_dofs(self):
        mesh, k = self.mesh, self.k
        T = mesh.num_triangles
        nloc = 3 + 3 * self.n_edge + self.n_interior
        out = np.empty((T, nloc), dtype=np.int64)
        out[:, :3] = mesh.triangles
        if self.n_edge:
            for j in range(3):  # local edges 01, 12, 20
                a = mesh.triangles[:, j]
                b = mesh.triangles[:, (j + 1) % 3]
                e = mesh.tri_edges[:, j]
                base = self.edge_offset + e[:, None] * self.n_edge
                idx = np.arange(self.n_edge)
                # global edge nodes run lo -> hi; flip when the element
                # walks the edge hi -> lo
                fwd = base + idx
                rev = base + idx[::-1]
                cols = np.where((a < b)[:, None], fwd, rev)
                out[:, 3 + j * self.n_edge: 3 + (j + 1) * self.n_edge] = cols
        if self.n_interior:
            base = self.interior_offset \
                + np.arange(T)[:, None] * self.n_interior
            out[:, 3 + 3 * self.n_edge:] = base + np.arange(self.n_interior)
        return out
