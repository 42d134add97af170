"""Continuous piecewise-P_k space on the barycentric macro split of a
triangle: nodes, nodal basis at a volume quadrature, stiffness, and the
factored bubble block that the stabilizer-free element's projection
solves with."""

import numpy as np
from scipy.linalg import cho_factor

from .dofmap import boundary_nodes
from .mesh import macro_split
from .polynomials import (AffineMonomialBasis, lattice_multi_indices,
                          monomial_dim)
from .quadrature import quad_rule_triangle


class HctError(ValueError):
    pass


def hct_dimension(k):
    return 4 + 6 * (k - 1) + 3 * (k - 1) * (k - 2) // 2


class HctLocalSpace:
    """Nodal Lagrange basis of C0 piecewise P_k over the 3-way split.

    Node ordering: the 3k boundary nodes of the parent triangle in
    dofmap.boundary_nodes order, then the barycenter, internal-edge nodes,
    and sub-triangle interior nodes.
    """

    def __init__(self, k, coords, quad_degree=None):
        if not 1 <= k <= 6:
            raise HctError(f"polynomial degree k={k} outside 1..6")
        coords = np.asarray(coords, dtype=float)
        self.k = k
        self.coords = coords
        self.split = macro_split(coords)

        self._build_nodes()
        self._build_basis()
        self._build_quadrature(quad_degree)
        self._build_stiffness()

    # -- construction -----------------------------------------------------

    def _build_nodes(self):
        k = self.k
        v = self.coords
        bc = self.split.barycenter
        nodes = list(boundary_nodes(v, k))
        self.num_boundary = len(nodes)  # == 3k
        nodes.append(bc)
        for a in range(3):
            for l in range(1, k):
                nodes.append(v[a] + (l / k) * (bc - v[a]))
        for sub in self.split.sub_triangles:
            for (a, b, c) in lattice_multi_indices(k):
                if a > 0 and b > 0 and c > 0:
                    nodes.append((a * sub[0] + b * sub[1] + c * sub[2]) / k)
        self.nodes = np.array(nodes)
        self.dim = len(nodes)
        assert self.dim == hct_dimension(k)
        self.boundary_index = np.arange(self.num_boundary)
        self.bubble_index = np.arange(self.num_boundary, self.dim)

    def _build_basis(self):
        """Per sub-triangle: local Lagrange basis in its affine monomials plus
        the local-to-global node map (matched by position)."""
        k = self.k
        nloc = monomial_dim(k)
        self.sub_bases = []
        self.sub_l2g = []
        self.sub_coeffs = []
        for sub in self.split.sub_triangles:
            basis = AffineMonomialBasis(
                sub[0], np.column_stack([sub[1] - sub[0], sub[2] - sub[0]]),
                k)
            pts = np.array([(a * sub[0] + b * sub[1] + c * sub[2]) / k
                            for (a, b, c) in lattice_multi_indices(k)])
            d2 = ((pts[:, None, :] - self.nodes[None, :, :]) ** 2).sum(-1)
            l2g = d2.argmin(axis=1)
            if not np.all(np.sqrt(d2[np.arange(len(pts)), l2g])
                          < 1e-9 * np.ptp(self.coords, axis=0).max()):
                raise HctError("sub-triangle lattice node mismatch")
            V = basis.values(pts)
            coeffs = np.linalg.inv(V)       # column p: coeffs of Lagrange_p
            assert len(l2g) == nloc
            self.sub_bases.append(basis)
            self.sub_l2g.append(l2g)
            self.sub_coeffs.append(coeffs)

    def _build_quadrature(self, quad_degree):
        k = self.k
        degree = quad_degree if quad_degree is not None else 2 * k + 6
        rule = quad_rule_triangle(degree)
        pts_list, w_list, phi_list, grad_list = [], [], [], []
        for s, sub in enumerate(self.split.sub_triangles):
            pts, w = rule.physical(sub)
            vals = self.sub_bases[s].values(pts) @ self.sub_coeffs[s]
            grads = np.einsum("qad,ap->qpd",
                              self.sub_bases[s].gradients(pts),
                              self.sub_coeffs[s])
            phi = np.zeros((len(pts), self.dim))
            gphi = np.zeros((len(pts), self.dim, 2))
            phi[:, self.sub_l2g[s]] = vals
            gphi[:, self.sub_l2g[s]] = grads
            pts_list.append(pts)
            w_list.append(w)
            phi_list.append(phi)
            grad_list.append(gphi)
        self.quad_points = np.concatenate(pts_list)
        self.quad_weights = np.concatenate(w_list)
        self.quad_values = np.concatenate(phi_list)
        self.quad_gradients = np.concatenate(grad_list)

    def _build_stiffness(self):
        # gradients as a (dim, 2 nq) matrix: the Gram is one BLAS product
        G = self.quad_gradients.transpose(1, 0, 2).reshape(self.dim, -1)
        self.stiffness = (G * np.repeat(self.quad_weights, 2)) @ G.T
        self.stiffness = 0.5 * (self.stiffness + self.stiffness.T)
        bub = self.bubble_index
        bnd = self.boundary_index
        # the blocks the energy projections solve with
        self.s_bub_bnd = self.stiffness[np.ix_(bub, bnd)]
        self.bubble_chol = cho_factor(self.stiffness[np.ix_(bub, bub)])
