"""Continuous piecewise-P_k space on the barycentric macro split of a
triangle, and the energy projection onto it."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .mesh import macro_split
from .polynomials import (AffineMonomialBasis, ScaledMonomialBasis,
                          monomial_dim)
from .quadrature import quad_rule_triangle


class HctError(ValueError):
    pass


def hct_dimension(k):
    return 4 + 6 * (k - 1) + 3 * (k - 1) * (k - 2) // 2


def _lattice_multi_indices(k):
    """All (a, b, c) with a + b + c = k, a, b, c >= 0."""
    out = []
    for a in range(k, -1, -1):
        for b in range(k - a, -1, -1):
            out.append((a, b, k - a - b))
    return out


class HctLocalSpace:
    """Nodal Lagrange basis of C0 piecewise P_k over the 3-way split.

    Node ordering: the 3 parent vertices, then k-1 uniform interior nodes
    per parent edge (edges 01, 12, 20, walked from the first vertex), then
    the barycenter, internal-edge nodes, and sub-triangle interior nodes.
    The first 3k nodes are exactly the boundary nodes.
    """

    def __init__(self, k, coords, quad_degree=None):
        if not 1 <= k <= 6:
            raise HctError(f"polynomial degree k={k} outside 1..6")
        coords = np.asarray(coords, dtype=float)
        self.k = k
        self.coords = coords
        self.split = macro_split(coords)
        edges = coords[[1, 2, 0]] - coords
        self.diameter = float(np.linalg.norm(edges, axis=1).max())

        self._build_nodes()
        self._build_basis()
        self._build_quadrature(quad_degree)
        self._build_stiffness()

    # -- construction -----------------------------------------------------

    def _build_nodes(self):
        k = self.k
        v = self.coords
        bc = self.split.barycenter
        nodes = [v[0], v[1], v[2]]
        for (a, b) in ((0, 1), (1, 2), (2, 0)):
            for l in range(1, k):
                nodes.append(v[a] + (l / k) * (v[b] - v[a]))
        self.num_boundary = len(nodes)  # == 3k
        nodes.append(bc)
        for a in range(3):
            for l in range(1, k):
                nodes.append(v[a] + (l / k) * (bc - v[a]))
        for sub in self.split.sub_triangles:
            for (a, b, c) in _lattice_multi_indices(k):
                if a > 0 and b > 0 and c > 0:
                    nodes.append((a * sub[0] + b * sub[1] + c * sub[2]) / k)
        self.nodes = np.array(nodes)
        self.dim = len(nodes)
        assert self.dim == hct_dimension(k)
        self.boundary_index = np.arange(self.num_boundary)
        self.bubble_index = np.arange(self.num_boundary, self.dim)

    def _build_basis(self):
        """Per sub-triangle: local Lagrange basis in scaled monomials plus
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
                            for (a, b, c) in _lattice_multi_indices(k)])
            d2 = ((pts[:, None, :] - self.nodes[None, :, :]) ** 2).sum(-1)
            l2g = d2.argmin(axis=1)
            if not np.all(np.sqrt(d2[np.arange(len(pts)), l2g])
                          < 1e-9 * self.diameter):
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
        w = self.quad_weights
        g = self.quad_gradients
        self.stiffness = np.einsum("q,qid,qjd->ij", w, g, g)
        self.stiffness = 0.5 * (self.stiffness + self.stiffness.T)
        bub = self.bubble_index
        bnd = self.boundary_index
        self._s_bub_bnd = self.stiffness[np.ix_(bub, bnd)]
        self._bubble_chol = cho_factor(self.stiffness[np.ix_(bub, bub)])

    # -- queries ----------------------------------------------------------

    def _locate(self, points):
        """Sub-triangle index for each point (ties are harmless: the basis
        is continuous across internal edges)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        best = np.full(len(points), -1)
        best_min = np.full(len(points), -np.inf)
        for s, sub in enumerate(self.split.sub_triangles):
            T = np.column_stack([sub[1] - sub[0], sub[2] - sub[0]])
            lam = np.linalg.solve(T, (points - sub[0]).T).T
            bary = np.column_stack([1 - lam.sum(axis=1), lam])
            m = bary.min(axis=1)
            upd = m > best_min
            best[upd] = s
            best_min[upd] = m[upd]
        return best

    def eval_basis(self, points):
        """Values of all nodal basis functions, (npts, dim)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        where = self._locate(points)
        out = np.zeros((len(points), self.dim))
        for s in range(3):
            sel = where == s
            if not sel.any():
                continue
            vals = self.sub_bases[s].values(points[sel]) @ self.sub_coeffs[s]
            out[np.ix_(sel, self.sub_l2g[s])] = vals
        return out

    def moments(self, f):
        """Vector of integrals (f, phi_i)_K by the cached quadrature."""
        vals = np.asarray(f(self.quad_points[:, 0], self.quad_points[:, 1]))
        return self.quad_values.T @ (self.quad_weights * vals)

    # -- projection -------------------------------------------------------

    def project(self, boundary_values, laplacian_moments=None):
        """Coefficients of the energy projection given boundary node values
        and the bubble moment vector of -Delta(v)."""
        boundary_values = np.asarray(boundary_values, dtype=float)
        if boundary_values.shape != (self.num_boundary,):
            raise HctError("expected one value per boundary node")
        c = np.zeros(self.dim)
        c[:self.num_boundary] = boundary_values
        rhs = -self._s_bub_bnd @ boundary_values
        if laplacian_moments is not None:
            rhs = rhs + laplacian_moments
        c[self.num_boundary:] = cho_solve(self._bubble_chol, rhs)
        return c


@dataclass
class HctFunction:
    space: HctLocalSpace
    coefficients: np.ndarray

    def __call__(self, points):
        return self.space.eval_basis(points) @ self.coefficients


def project_hct(space, boundary_values, laplacian_coeffs=None,
                laplacian_basis=None):
    """Energy projection of the virtual function with the given boundary
    trace and interior -Delta expansion (a P_{k-2} scaled-monomial field)."""
    lap_m = None
    if laplacian_coeffs is not None and len(laplacian_coeffs):
        basis = laplacian_basis
        if basis is None:
            basis = ScaledMonomialBasis(
                space.split.barycenter, space.diameter, space.k - 2)
        if basis.dim != len(laplacian_coeffs):
            raise HctError("laplacian coefficient count mismatch")
        vals = basis.values(space.quad_points) @ np.asarray(laplacian_coeffs)
        lap_m = space.quad_values[:, space.bubble_index].T \
            @ (space.quad_weights * vals)
    return HctFunction(space, space.project(boundary_values, lap_m))


def interpolate_exact_solution(space, u, laplacian_u):
    """Projection driven by exact data: u at the boundary nodes, and the
    bubble load (-Delta u, phi)_K by quadrature."""
    bnd = space.nodes[:space.num_boundary]
    bvals = np.asarray(u(bnd[:, 0], bnd[:, 1]), dtype=float)
    qp = space.quad_points
    f = -np.asarray(laplacian_u(qp[:, 0], qp[:, 1]))
    lap_m = space.quad_values[:, space.bubble_index].T \
        @ (space.quad_weights * f)
    return HctFunction(space, space.project(bvals, lap_m))
