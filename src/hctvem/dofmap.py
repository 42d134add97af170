"""Global DOF numbering shared by all three methods, free DOFs first:
the free vertex DOFs, the free edge DOFs (k-1 uniform nodes per edge,
walked from the lower vertex index), the dim P_{k-2} interior DOFs of
each element, then the Dirichlet vertex and edge DOFs, each group in mesh
order.  So the reduced system is the block [0, n_free) and the skeleton,
the free vertex and edge DOFs, the block [0, n_skeleton).  Also the local
order of the boundary nodes that the numbering follows."""

import numpy as np
import scipy.sparse as sp

from .polynomials import monomial_dim


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
    """vertex_dofs (V,) and edge_dofs (E, k-1) give the DOF of each mesh
    vertex and edge node, element_dofs (T, ndof) each element's DOFs in
    local order; total counts the Dirichlet DOFs too."""

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = k
        self.n_edge = k - 1
        self.n_interior = monomial_dim(k - 2)
        V, E, T = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
        dirichlet = np.concatenate([
            mesh.boundary_vertex, np.repeat(mesh.boundary_edge, self.n_edge),
            np.zeros(T * self.n_interior, dtype=bool)])
        self.total = len(dirichlet)
        self.n_free = self.total - int(np.count_nonzero(dirichlet))
        self.n_skeleton = self.n_free - T * self.n_interior
        # the stable sort keeps mesh order within the free and the
        # Dirichlet DOFs
        number = np.empty(self.total, dtype=np.int64)
        number[np.argsort(dirichlet, kind="stable")] = np.arange(self.total)
        self.vertex_dofs = number[:V]
        self.edge_dofs = number[V:V + E * self.n_edge].reshape(E, self.n_edge)
        self.element_dofs = self._element_dofs()

    def _element_dofs(self):
        mesh, k = self.mesh, self.k
        T = mesh.num_triangles
        out = np.empty((T, 3 * k + self.n_interior), dtype=np.int64)
        out[:, :3] = self.vertex_dofs[mesh.triangles]
        for j, edge in enumerate(edge_slots(k)):  # local edges 01, 12, 20
            a, b = mesh.triangles[:, edge[[0, -1]]].T
            nodes = self.edge_dofs[mesh.tri_edges[:, j]]
            # global edge nodes run lo -> hi; flip when the element
            # walks the edge hi -> lo
            out[:, edge[1:-1]] = np.where((a < b)[:, None], nodes,
                                          nodes[:, ::-1])
        out[:, 3 * k:] = self.n_skeleton + np.arange(
            T * self.n_interior).reshape(T, self.n_interior)
        return out

    def coarse_space(self):
        """P (CSR, skeleton DOFs x free vertices): column j holds the
        values of the P1 hat function of free vertex j, whose DOF is j, at
        the free vertex and edge nodes: 1 at its own vertex, 1 - t and t
        at the node t = i/k of an edge from its lower to its upper vertex.
        So P^T S P is the P1 stiffness on the free vertices for the
        skeleton system S of every method."""
        mesh, E = self.mesh, self.mesh.num_edges
        nv = int(np.count_nonzero(~mesh.boundary_vertex))
        t = np.arange(1, self.k) / self.k
        nodes = self.edge_dofs.ravel()
        lo, hi = np.repeat(self.vertex_dofs[mesh.edges], self.n_edge,
                           axis=0).T
        rows = np.concatenate([np.arange(nv), nodes, nodes])
        cols = np.concatenate([np.arange(nv), lo, hi])
        vals = np.concatenate([np.ones(nv), np.tile(1 - t, E),
                               np.tile(t, E)])
        keep = (rows < self.n_skeleton) & (cols < nv)
        return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                             shape=(self.n_skeleton, nv))
