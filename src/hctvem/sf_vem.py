"""Stabilizer-free virtual element method: DOFs are edge nodal values plus
coefficients of -Delta(v) in the element's scaled monomial basis (scaled by
the squared diameter).  The local stiffness is the energy product of the
HCT projections of the DOF basis."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
import scipy.sparse as sp

from .dofmap import DofMap
from .hct import HctLocalSpace
from .polynomials import AffineMonomialBasis, ScaledMonomialBasis


class AssemblyError(RuntimeError):
    pass


def group_elements(mesh, ndigits=12):
    """Group triangles into translation classes (v1-v0, v2-v0).

    Both mesh families consist of translated copies of a handful of
    shapes, so all element-level matrices are computed once per class.
    """
    v = mesh.vertices[mesh.triangles]
    rel = v[:, 1:, :] - v[:, :1, :]
    keys = np.round(rel.reshape(len(v), 4), ndigits)
    # the sort is stable and treats -0.0 and 0.0 as equal, so each class
    # lists its triangles ascending; classes come in the order of their
    # first triangle, keyed by that triangle's key
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.flatnonzero(np.any(ordered[1:] != ordered[:-1], axis=1)) + 1
    classes = sorted(np.split(order, starts), key=lambda idx: idx[0])
    return {tuple(keys[idx[0]]): idx for idx in classes}


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
        self._build_source_interp()

    def _build_source_interp(self):
        """P_k interpolation of the source on the parent triangle: the
        load is (I_k f, proj of unit DOF)_K.  It coincides with the "vem"
        rule at k = 1; against the reference L2 errors that "vem"
        reproduces it is 1 % off at k = 2, 4 and 6, 4 % at k = 5 and 1.5x
        at k = 3."""
        from .hct import _lattice_multi_indices
        k = self.k
        v = self.local_verts
        lat = np.array([(a * v[0] + b * v[1] + c * v[2]) / k
                        for (a, b, c) in _lattice_multi_indices(k)])
        basis = ScaledMonomialBasis(v.mean(axis=0), self.diameter, k)
        Vm = basis.values(lat)
        lag_quad = basis.values(self.quad_points) @ np.linalg.inv(Vm)
        self.source_nodes = lat                       # local coords
        self.interp_load_matrix = lag_quad.T @ self.load_matrix

    def _projection_matrix(self):
        sp_ = self.space
        nb, nbub = sp_.num_boundary, len(sp_.bubble_index)
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

    # batch helpers -------------------------------------------------------

    def solution_coeffs(self, dof_values):
        """(nE, ndof) DOF values -> (nE, hct_dim) nodal coefficients."""
        return dof_values @ self.projection.T

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


@dataclass
class ElementMatrices:
    element: int
    dofs: np.ndarray
    stiffness: np.ndarray
    load: np.ndarray


def _class_cache_build(mesh, k, cache=None):
    groups = group_elements(mesh)
    out = []
    for key, idx in groups.items():
        if cache is not None and (k, key) in cache:
            ec = cache[(k, key)]
        else:
            local = np.array([[0.0, 0.0], [key[0], key[1]],
                              [key[2], key[3]]])
            ec = SfElementClass(k, local)
            if cache is not None:
                cache[(k, key)] = ec
        out.append((ec, idx))
    return out


_GLOBAL_CACHE = {}


def local_projection_matrix(space, k):
    """DOF -> HCT-coefficient map for a single element (spec surface)."""
    coords = space.coords
    ec = SfElementClass(k, coords - coords[0])
    return ec.projection


def local_element_matrices(mesh, k, t, f=None):
    coords = mesh.triangle_coords(t)
    ec = SfElementClass(k, coords - coords[0])
    if f is None:
        load = np.zeros(ec.ndof)
    else:
        qp = coords[0] + ec.quad_points
        load = np.asarray(f(qp[:, 0], qp[:, 1])) @ ec.load_matrix
    dm = DofMap(mesh, k)
    return ElementMatrices(t, dm.element_dofs[t], ec.K_loc, load)


def _assemble(mesh, k, classes, f, load_rule="interp", lap_f=None):
    """Global matrix and load.  Load rules: "interp" (f interpolated in P_k
    on the parent triangle), "exact" (f at the quadrature points) and
    "vem" (f interpolated in the virtual element space like the error
    reference, which needs lap_f, the Laplacian of f)."""
    if load_rule == "vem" and lap_f is None:
        raise AssemblyError('load rule "vem" needs the Laplacian of f')
    dm = DofMap(mesh, k)
    rows, cols, vals = [], [], []
    b = np.zeros(dm.total)
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    for ec, idx in classes:
        gd = dm.element_dofs[idx]
        if gd.shape[1] != ec.ndof:
            raise AssemblyError("inconsistent local DOF count")
        n = ec.ndof
        rows.append(np.repeat(gd, n, axis=1).ravel())
        cols.append(np.tile(gd, (1, n)).ravel())
        vals.append(np.tile(ec.K_loc.ravel(), len(idx)))
        if f is not None:
            if load_rule == "interp":
                pts = v0[idx][:, None, :] + ec.source_nodes[None, :, :]
                fv = np.asarray(f(pts[..., 0], pts[..., 1]))
                loads = fv @ ec.interp_load_matrix
            elif load_rule == "exact":
                qp = v0[idx][:, None, :] + ec.quad_points[None, :, :]
                fv = np.asarray(f(qp[..., 0], qp[..., 1]))
                loads = fv @ ec.load_matrix
            elif load_rule == "vem":
                loads = ec.interpolant_coeffs(f, lap_f, v0[idx]) \
                    @ ec.vem_load_matrix
            else:
                raise AssemblyError(f"unknown load rule {load_rule!r}")
            np.add.at(b, gd.ravel(), loads.ravel())
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dm.total, dm.total)).tocsr()
    return dm, A, b


def assemble_global(mesh, k, f=None):
    """Assembled system with Dirichlet DOFs eliminated (homogeneous BC)."""
    classes = _class_cache_build(mesh, k, _GLOBAL_CACHE)
    dm, A, b = _assemble(mesh, k, classes, f)
    free = dm.free
    return A[free][:, free], b[free], dm


@dataclass
class SfSolution:
    mesh: object
    k: int
    dofmap: DofMap
    dofs: np.ndarray                 # full DOF vector (Dirichlet zeros)
    classes: list                    # [(SfElementClass, element indices)]

    def solution_field(self):
        """Per-class HCT coefficient arrays of u_h."""
        out = []
        for ec, idx in self.classes:
            d = self.dofs[self.dofmap.element_dofs[idx]]
            out.append((ec, idx, ec.solution_coeffs(d)))
        return SfField(self.mesh, self.k, out)

    def reference_field(self, problem):
        v0 = self.mesh.vertices[self.mesh.triangles[:, 0]]
        out = []
        for ec, idx in self.classes:
            out.append((ec, idx, ec.reference_coeffs(problem, v0[idx])))
        return SfField(self.mesh, self.k, out)


@dataclass
class SfField:
    """Piecewise-HCT field stored as per-class coefficient batches."""

    mesh: object
    k: int
    parts: list                      # [(class, element idx, coeffs)]

    def error_norms(self, other):
        if other.mesh is not self.mesh or other.k != self.k:
            raise ValueError("fields live on different meshes or degrees")
        l2 = 0.0
        h1 = 0.0
        for (ec, idx, ca), (_, idx2, cb) in zip(self.parts, other.parts):
            if not np.array_equal(idx, idx2):
                raise ValueError("field partitions disagree")
            d = ca - cb
            vals = d @ ec.basis_values.T
            l2 += float(np.einsum("q,eq->", ec.quad_weights, vals ** 2))
            gx = d @ ec.basis_gradients[:, :, 0].T
            gy = d @ ec.basis_gradients[:, :, 1].T
            h1 += float(np.einsum("q,eq->", ec.quad_weights,
                                  gx ** 2 + gy ** 2))
        return np.sqrt(l2), np.sqrt(h1)


def solve_sf_vem(mesh, k, problem, solver="direct", tol=1e-12,
                 load_rule="interp", return_system=False):
    from . import solvers
    classes = _class_cache_build(mesh, k, _GLOBAL_CACHE)
    dm, A, b = _assemble(mesh, k, classes, problem.f, load_rule,
                         problem.lap_f)
    free = dm.free
    A_red = A[free][:, free].tocsc()
    b_red = b[free]
    x = solvers.solve_spd(A_red, b_red, method=solver, tol=tol)
    dofs = np.zeros(dm.total)
    dofs[free] = x
    sol = SfSolution(mesh, k, dm, dofs, classes)
    if return_system:
        return sol, A_red, b_red
    return sol
