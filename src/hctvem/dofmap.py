"""Global DOF numbering shared by all three methods: vertex values, k-1
uniform nodes per edge (walked from the lower vertex index), and
dim P_{k-2} interior DOFs per element; and the local order of the
boundary nodes that the numbering follows."""

import numpy as np


def edge_slots(k):
    """(3, k+1) local DOF slots of the edges 01, 12, 20, each walked from
    its first vertex.  The local order is the three vertices, the k-1
    nodes of each edge in turn, then the interior DOFs."""
    nodes = 3 + np.arange(3 * (k - 1)).reshape(3, k - 1)
    return np.column_stack([np.arange(3), nodes, [1, 2, 0]])


def boundary_nodes(verts, k):
    """(3k, 2) boundary nodes of the triangle verts in local DOF order,
    uniform on each edge."""
    v = np.asarray(verts, dtype=float)
    slots = edge_slots(k)
    a, b = v[slots[:, :1]], v[slots[:, -1:]]
    nodes = np.empty((3 * k, 2))
    nodes[:3] = v
    nodes[slots[:, 1:-1]] = a + np.arange(1, k)[:, None] / k * (b - a)
    return nodes


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
        out = np.empty((T, 3 * k + self.n_interior), dtype=np.int64)
        out[:, :3] = mesh.triangles
        idx = np.arange(self.n_edge)
        for j, edge in enumerate(edge_slots(k)):  # local edges 01, 12, 20
            a, b = mesh.triangles[:, edge[[0, -1]]].T
            base = self.edge_offset + mesh.tri_edges[:, j, None] * self.n_edge
            # global edge nodes run lo -> hi; flip when the element
            # walks the edge hi -> lo
            out[:, edge[1:-1]] = np.where((a < b)[:, None], base + idx,
                                          base + idx[::-1])
        base = self.interior_offset + np.arange(T)[:, None] * self.n_interior
        out[:, 3 * k:] = base + np.arange(self.n_interior)
        return out
