"""Stabilizer-free virtual element method: DOFs are edge nodal values plus
coefficients of -Delta(v) in the element's affine monomial basis about the
barycenter (scaled by the squared diameter).  The local stiffness is the
energy product of the HCT projections of the DOF basis."""

import numpy as np
from scipy.linalg import cho_solve

from .dofmap import DofMap
from .hct import HctLocalSpace
from .pipeline import (ElementClass, Field, Solution, assemble,
                       build_classes, solve_reduced)
from .polynomials import AffineMonomialBasis


class SfElementClass(ElementClass):
    """Cached per-shape data: HCT space and DOF-to-HCT projection; the
    stiffness Gram is the HCT space's, and there is no stabilizer."""

    def __init__(self, k, local_verts):
        super().__init__(k, local_verts)
        self.space = HctLocalSpace(k, self.verts)
        sp_ = self.space
        v = self.verts
        self.interior_basis = AffineMonomialBasis(
            self.barycenter,
            np.column_stack([v[1] - v[0], v[2] - v[0]]), k - 2)
        self.n_interior = self.interior_basis.dim if k >= 2 else 0
        self.ndof = self.n_boundary + self.n_interior
        self.stiffness = sp_.stiffness
        self.quad_points = sp_.quad_points
        self.quad_weights = sp_.quad_weights
        self.basis_values = sp_.quad_values
        self.basis_gradients = sp_.quad_gradients
        self.projection = self._projection_matrix()
        if self.n_interior:
            # normalize interior DOFs to unit local energy so the global
            # spectrum is governed by the mesh, not by per-element modes
            nb = self.n_boundary
            Pi = self.projection[:, nb:]
            e = np.sqrt(np.einsum("ia,ij,ja->a", Pi, self.stiffness, Pi))
            self.interior_scale = e
            self.projection[:, nb:] = Pi / e
        else:
            self.interior_scale = np.zeros(0)

    def _projection_matrix(self):
        sp_ = self.space
        nb = self.n_boundary
        P = np.zeros((sp_.dim, self.ndof))
        P[:nb, :nb] = np.eye(nb)
        # boundary DOF columns: bubble part solves the homogeneous system
        bub_bnd = cho_solve(sp_.bubble_chol, sp_.s_bub_bnd)
        P[nb:, :nb] = -bub_bnd
        if self.n_interior:
            vals = self.interior_basis.values(sp_.quad_points)
            M = sp_.quad_values[:, sp_.bubble_index].T \
                @ (sp_.quad_weights[:, None] * vals) / self.diameter ** 2
            P[nb:, nb:] = cho_solve(sp_.bubble_chol, M)
        return P

    def dof_values(self, g, lap_g, origins):
        """(nE, ndof) DOFs of the virtual interpolant of g on the copies
        translated by origins: g at the boundary nodes, and -Delta of the
        interpolant taken as the L2 projection of -Delta(g) onto P_{k-2},
        scaled like the interior columns of projection."""
        nodes = origins[:, None, :] + self.boundary_nodes
        bvals = np.asarray(g(nodes[..., 0], nodes[..., 1]), dtype=float)
        if not self.n_interior:
            return bvals
        qp = origins[:, None, :] + self.quad_points[None, :, :]
        mu = self.interior_basis.values(self.quad_points)
        wmu = self.quad_weights[:, None] * mu
        mom = -lap_g(qp[..., 0], qp[..., 1]) @ wmu    # (nE, dim P_{k-2})
        coeffs = np.linalg.solve(mu.T @ wmu, mom.T).T
        interior = coeffs * self.diameter ** 2 * self.interior_scale
        return np.concatenate([bvals, interior], axis=1)


def _class_cache_build(mesh, k, cache=None):
    return build_classes(mesh, lambda local: SfElementClass(k, local),
                         {} if cache is None else cache, (k,))


_GLOBAL_CACHE = {}


def _assemble(mesh, k, classes, f, load_rule="interp", lap_f=None):
    """Global matrix and load; see pipeline.assemble for the load rules."""
    dm = DofMap(mesh, k)
    A, b = assemble(dm, classes, f, load_rule, lap_f)
    return dm, A, b


# SfField and SfSolution add nothing to the shared classes.  They exist so
# that each method's field and solution are distinct classes, which the
# benchmark's per-layer tracer times separately.
class SfField(Field):
    pass


class SfSolution(Solution):
    field_class = SfField


def solve_sf_vem(mesh, k, problem, solver="direct", tol=1e-12,
                 load_rule="interp", kappa=False):
    classes = _class_cache_build(mesh, k, _GLOBAL_CACHE)
    dm, A, b = _assemble(mesh, k, classes, problem.f, load_rule,
                         problem.lap_f)
    return solve_reduced(SfSolution, dm, A, b, classes, solver, tol, kappa)
