"""Stabilizer-free virtual element method: DOFs are edge nodal values plus
coefficients of -Delta(v) in the element's scaled monomial basis (scaled by
the squared diameter).  The local stiffness is the energy product of the
HCT projections of the DOF basis."""

import numpy as np
from scipy.linalg import cho_solve

from .dofmap import DofMap
from .hct import HctLocalSpace
from .pipeline import (Field, Solution, assemble, build_classes,
                       reduce_dirichlet, solve_reduced, source_interp)
from .polynomials import AffineMonomialBasis


class SfElementClass:
    """Cached per-shape data: HCT space, DOF-to-HCT projection, stiffness."""

    def __init__(self, k, local_verts):
        self.k = k
        self.local_verts = np.asarray(local_verts, dtype=float)
        self.space = HctLocalSpace(k, self.local_verts)
        sp_ = self.space
        self.diameter = sp_.diameter
        v = self.local_verts
        self.interior_basis = AffineMonomialBasis(
            sp_.split.barycenter,
            np.column_stack([v[1] - v[0], v[2] - v[0]]), k - 2)
        self.n_boundary = sp_.num_boundary           # 3k
        self.n_interior = self.interior_basis.dim if k >= 2 else 0
        self.ndof = self.n_boundary + self.n_interior
        self.projection = self._projection_matrix()
        S = sp_.stiffness
        if self.n_interior:
            # normalize interior DOFs to unit local energy so the global
            # spectrum is governed by the mesh, not by per-element modes
            nb = self.n_boundary
            Pi = self.projection[:, nb:]
            e = np.sqrt(np.einsum("ia,ij,ja->a", Pi, S, Pi))
            self.interior_scale = e
            self.projection[:, nb:] = Pi / e
        else:
            self.interior_scale = np.zeros(0)
        K = self.projection.T @ S @ self.projection
        self.K_loc = 0.5 * (K + K.T)
        # load: (f, proj of unit DOF)_K = f-values @ load_matrix
        self.quad_points = sp_.quad_points
        self.quad_weights = sp_.quad_weights
        self.load_matrix = (sp_.quad_weights[:, None] * sp_.quad_values) \
            @ self.projection
        # load rule "vem": (proj of the virtual interpolant of f, proj of
        # unit DOF)_K = HCT coefficients of that projection @ this matrix
        self.vem_load_matrix = sp_.quad_values.T @ self.load_matrix
        self.basis_values = sp_.quad_values
        self.basis_gradients = sp_.quad_gradients
        # load rule "interp": the P_k interpolant of f on the parent
        # triangle.  It coincides with "vem" at k = 1; against the
        # reference L2 errors that "vem" reproduces it is 1 % off at k = 2,
        # 4 and 6, 4 % at k = 5 and 1.5x at k = 3.
        self.source_nodes, self.interp_load_matrix = source_interp(
            k, self.local_verts, self.diameter, self.quad_points,
            self.load_matrix)

    def _projection_matrix(self):
        sp_ = self.space
        nb = sp_.num_boundary
        P = np.zeros((sp_.dim, self.ndof))
        P[:nb, :nb] = np.eye(nb)
        # boundary DOF columns: bubble part solves the homogeneous system
        bub_bnd = cho_solve(sp_._bubble_chol, sp_._s_bub_bnd)
        P[nb:, :nb] = -bub_bnd
        if self.n_interior:
            vals = self.interior_basis.values(sp_.quad_points)
            M = sp_.quad_values[:, sp_.bubble_index].T \
                @ (sp_.quad_weights[:, None] * vals) / self.diameter ** 2
            P[nb:, nb:] = cho_solve(sp_._bubble_chol, M)
        return P

    def polynomial_dofs(self, coeffs, basis=None):
        """DOF vector representing the P_k polynomial with the given
        coefficients (default basis: the first sub-triangle's)."""
        sp_ = self.space
        if basis is None:
            basis = sp_.sub_bases[0]
        bvals = basis.values(sp_.nodes[:self.n_boundary]) @ coeffs
        if not self.n_interior:
            return bvals
        # -Delta p lies in P_{k-2}; expand it in the interior basis
        lap_c = -(basis.laplacian_map().T @ coeffs)
        lap_basis = basis.lowered()
        mu = self.interior_basis.values(sp_.quad_points)
        w = sp_.quad_weights
        gram = mu.T @ (w[:, None] * mu)
        lap_q = lap_basis.values(sp_.quad_points) @ lap_c
        c_mu = np.linalg.solve(gram, mu.T @ (w * lap_q))
        interior = c_mu * self.diameter ** 2 * self.interior_scale
        return np.concatenate([bvals, interior])

    def reference_coeffs(self, problem, origins):
        """HCT projection of the virtual interpolant of the exact solution
        (see interpolant_coeffs)."""
        return self.interpolant_coeffs(problem.u, problem.lap_u, origins)

    def interpolant_coeffs(self, g, lap_g, origins):
        """HCT projection of the virtual interpolant of g: g at the
        boundary nodes, -Delta of the interpolant taken as the L2
        projection of -Delta(g) onto P_{k-2} (zero when k = 1)."""
        sp_ = self.space
        nb = sp_.num_boundary
        nodes = origins[:, None, :] + sp_.nodes[None, :nb, :]
        bvals = g(nodes[..., 0], nodes[..., 1])
        rhs = -bvals @ sp_._s_bub_bnd.T
        if self.n_interior:
            qp = origins[:, None, :] + sp_.quad_points[None, :, :]
            fvals = -lap_g(qp[..., 0], qp[..., 1])
            mu = self.interior_basis.values(sp_.quad_points)
            wmu = sp_.quad_weights[:, None] * mu
            gram = mu.T @ wmu
            mom = fvals @ wmu                     # (nE, dim P_{k-2})
            coeffs = np.linalg.solve(gram, mom.T).T
            mu_phi_b = wmu.T @ sp_.quad_values[:, sp_.bubble_index]
            rhs = rhs + coeffs @ mu_phi_b
        cbub = cho_solve(sp_._bubble_chol, rhs.T).T
        return np.concatenate([bvals, cbub], axis=1)


def _class_cache_build(mesh, k, cache=None):
    return build_classes(mesh, lambda local: SfElementClass(k, local),
                         {} if cache is None else cache, (k,))


_GLOBAL_CACHE = {}


def _assemble(mesh, k, classes, f, load_rule="interp", lap_f=None):
    """Global matrix and load; see pipeline.assemble for the load rules."""
    dm = DofMap(mesh, k)
    A, b = assemble(dm, classes, f, load_rule, lap_f)
    return dm, A, b


def assemble_global(mesh, k, f=None):
    """Assembled system with Dirichlet DOFs eliminated (homogeneous BC)."""
    classes = _class_cache_build(mesh, k, _GLOBAL_CACHE)
    dm, A, b = _assemble(mesh, k, classes, f)
    return (*reduce_dirichlet(dm, A, b), dm)


# SfField and SfSolution add nothing to the shared classes.  They exist so
# that each method's field and solution are distinct classes, which the
# benchmark's per-layer tracer times separately.
class SfField(Field):
    pass


class SfSolution(Solution):
    field_class = SfField


def solve_sf_vem(mesh, k, problem, solver="direct", tol=1e-12,
                 load_rule="interp", return_system=False):
    classes = _class_cache_build(mesh, k, _GLOBAL_CACHE)
    dm, A, b = _assemble(mesh, k, classes, problem.f, load_rule,
                         problem.lap_f)
    return solve_reduced(SfSolution, dm, A, b, classes, solver, tol,
                         return_system)
