"""Continuous piecewise-P_k space on the barycentric (Hsieh-Clough-Tocher)
macro split of a triangle: the split itself, nodes, nodal basis at a
volume quadrature, stiffness, and the factored bubble block that the
stabilizer-free element's projection solves with.

An affine map x = v0 + J x_hat, J = [v1 - v0, v2 - v0], takes the unit
triangle's barycenter to the triangle's, so it takes the unit triangle's
split, nodes, sub-triangle lattices and quadrature onto the triangle's,
and every nodal basis function is the unit triangle's composed with the
inverse map (an affine-equivalent family: Ciarlet, The Finite Element
Method for Elliptic Problems, 1978, Sec. 2.3).  So HctLocalSpace(k,
coords, reference) maps a space built on UNIT_TRIANGLE onto coords: the
basis values at the quadrature points are the reference's array itself,
the gradients are the reference's times J^-1 and the weights the
reference's times |det J|.  HctLocalSpace(k, coords) builds the space in
the coordinates of coords themselves.  The module keeps no state: the
stabilizer-free element builds the unit triangle's space once per degree
(sf_vem._unit_table) and hands it to every class it maps."""

import numpy as np
from scipy.linalg import cho_factor

from .dofmap import boundary_nodes
from .mesh import signed_areas
from .polynomials import (AffineMonomialBasis, lattice_multi_indices,
                          monomial_dim)
from .quadrature import quad_rule_triangle

UNIT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class HctError(ValueError):
    pass


def hct_dimension(k):
    return 4 + 6 * (k - 1) + 3 * (k - 1) * (k - 2) // 2


class HctLocalSpace:
    """Nodal Lagrange basis of C0 piecewise P_k over the 3-way split.

    Node ordering: the 3k boundary nodes of the parent triangle in
    dofmap.boundary_nodes order, then the barycenter, internal-edge nodes,
    and sub-triangle interior nodes.  The space is the affine image of
    reference, a space of degree k on UNIT_TRIANGLE, or, without one,
    built in the coordinates of the triangle itself with a volume rule
    of degree quad_degree (default 2k + 6) on each sub-triangle.
    """

    def __init__(self, k, coords, reference=None, quad_degree=None):
        coords = np.asarray(coords, dtype=float)
        self.k = k
        self.coords = coords
        # the split at the barycenter: sub-triangle s is (v_s, v_s+1, bc)
        bc = self.barycenter = coords.mean(axis=0)
        self.sub_triangles = np.array(
            [[coords[s], coords[(s + 1) % 3], bc] for s in range(3)])
        # the sub-triangles' affine monomials: each Lagrange basis's
        # coefficients in them are the same on every triangle
        self.sub_bases = [
            AffineMonomialBasis(
                sub[0], np.column_stack([sub[1] - sub[0], sub[2] - sub[0]]),
                k)
            for sub in self.sub_triangles]

        self.reference = reference
        if reference is None:
            self._build_nodes()
            self._build_basis()
            self._build_quadrature(
                2 * k + 6 if quad_degree is None else quad_degree)
        else:
            self._map(reference)
        self._build_stiffness()

    # -- construction -----------------------------------------------------

    def _map(self, ref):
        """The reference space's nodes and quadrature mapped by x = v0 +
        J x_hat.  det J is twice mesh.signed_areas and J^-1 the adjugate
        over it, which scale by exact powers of two with the triangle."""
        v0 = self.coords[0]
        J = np.column_stack([self.coords[1] - v0, self.coords[2] - v0])
        det = 2.0 * signed_areas(self.coords)
        jinv = np.array([[J[1, 1], -J[0, 1]], [-J[1, 0], J[0, 0]]]) / det
        self.nodes = v0 + ref.nodes @ J.T
        self.dim, self.num_boundary = ref.dim, ref.num_boundary
        self.boundary_index = ref.boundary_index
        self.bubble_index = ref.bubble_index
        self.sub_l2g, self.sub_coeffs = ref.sub_l2g, ref.sub_coeffs
        self.quad_points = v0 + ref.quad_points @ J.T
        self.quad_weights = abs(det) * ref.quad_weights
        self.quad_values = ref.quad_values
        # d/dx_i = sum_a Jinv[a, i] d/dx_hat_a
        self.quad_gradients = ref.quad_gradients @ jinv

    def _build_nodes(self):
        k = self.k
        v = self.coords
        nodes = list(boundary_nodes(v, k))
        self.num_boundary = len(nodes)  # == 3k
        nodes.append(self.barycenter)
        for a in range(3):
            for l in range(1, k):
                nodes.append(v[a] + (l / k) * (self.barycenter - v[a]))
        for sub in self.sub_triangles:
            for (a, b, c) in lattice_multi_indices(k):
                if a > 0 and b > 0 and c > 0:
                    nodes.append((a * sub[0] + b * sub[1] + c * sub[2]) / k)
        self.nodes = np.array(nodes)
        self.dim = len(nodes)
        assert self.dim == hct_dimension(k)
        self.boundary_index = np.arange(self.num_boundary)
        self.bubble_index = np.arange(self.num_boundary, self.dim)

    def _build_basis(self):
        """Per sub-triangle: the coefficients of the local Lagrange basis
        in its affine monomials plus the local-to-global node map (matched
        by position)."""
        k = self.k
        nloc = monomial_dim(k)
        self.sub_l2g = []
        self.sub_coeffs = []
        for sub, basis in zip(self.sub_triangles, self.sub_bases):
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
            self.sub_l2g.append(l2g)
            self.sub_coeffs.append(coeffs)

    def _build_quadrature(self, quad_degree):
        rule = quad_rule_triangle(quad_degree)
        pts_list, w_list, phi_list, grad_list = [], [], [], []
        for s, sub in enumerate(self.sub_triangles):
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
