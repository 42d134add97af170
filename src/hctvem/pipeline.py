"""The method-independent pipeline shared by all three methods: element
classes per translation class, global assembly, Dirichlet reduction and
solve, and the discrete and reference fields with their error norms.

Every method supplies an element class with this protocol:

    ndof                        local DOF count
    K_loc                       (ndof, ndof) local stiffness
    projection                  (dim, ndof) DOFs -> projection coefficients
    load_matrix                 (nq, ndof) f at quad_points -> local load
    interp_load_matrix          (len(source_nodes), ndof) f at the P_k
                                lattice of the parent triangle -> load
    source_nodes                (n, 2) lattice nodes, local coordinates
    quad_points, quad_weights   volume quadrature, local coordinates
    basis_values                (nq, dim) projection basis at quad_points
    basis_gradients             (nq, dim, 2) its gradients
    dof_values(g, lap_g, origins)
                                (nE, ndof) DOFs of the virtual interpolant
                                of g (lap_g: its Laplacian) on the
                                translated copies; @ projection.T gives
                                the error reference Pi_h I_h u
    p1_dofs                     (ndof, 3) DOFs of the barycentric
                                coordinates of the class's vertices; they
                                span the coarse space of the CG solve

Local coordinates put the class's first vertex at the origin; `origins`
are the first vertices of the class's triangles.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import solvers
from .hct import _lattice_multi_indices
from .polynomials import ScaledMonomialBasis

LOAD_RULES = ("interp", "exact", "vem")


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


def build_classes(mesh, factory, cache, cache_key):
    """[(element class, triangle indices)] per translation class.
    factory(local_verts) builds a class; it is stored in `cache` under
    cache_key + (shape key,), which must name every parameter the class
    depends on."""
    out = []
    for key, idx in group_elements(mesh).items():
        full = cache_key + (key,)
        if full not in cache:
            local = np.array([[0.0, 0.0], [key[0], key[1]],
                              [key[2], key[3]]])
            cache[full] = factory(local)
        out.append((cache[full], idx))
    return out


def source_interp(k, verts, diameter, quad_points, load_matrix):
    """P_k Lagrange interpolation of the source on the parent triangle:
    returns the lattice nodes and the matrix taking f at them to the load
    (I_k f, proj of unit DOF)_K, given load_matrix for f at quad_points."""
    lat = np.array([(a * verts[0] + b * verts[1] + c * verts[2]) / k
                    for (a, b, c) in _lattice_multi_indices(k)])
    basis = ScaledMonomialBasis(verts.mean(axis=0), diameter, k)
    lag_quad = basis.values(quad_points) @ np.linalg.inv(basis.values(lat))
    return lat, lag_quad.T @ load_matrix


def barycentric_coeffs(verts):
    """(3, 3): row i holds (c0, cx, cy) with lambda_i = c0 + cx x + cy y,
    the barycentric coordinate of vertex i of the triangle verts."""
    return np.linalg.inv(np.vstack([np.ones(3), np.asarray(verts).T]))


def free_index(dm):
    """Position of each DOF among the free DOFs, -1 for Dirichlet DOFs."""
    pos = np.full(dm.total, -1, dtype=np.int64)
    pos[dm.free] = np.arange(len(dm.free))
    return pos


def coarse_space(dm, classes):
    """P (CSR, free DOFs x free vertices): column j holds the free DOFs of
    the P1 hat function of the j-th free vertex, so P^T A P is the P1
    stiffness on the free vertices."""
    T, n = dm.element_dofs.shape
    lam = np.empty((T, n, 3))
    for ec, idx in classes:
        lam[idx] = ec.p1_dofs
    # the hat functions are continuous, so any element holding a DOF gives
    # their values there; one assignment keeps element and slot together
    owner = np.empty(dm.total, dtype=np.int64)
    owner[dm.element_dofs] = np.arange(T * n).reshape(T, n)
    vals = lam.reshape(-1, 3)[owner]
    pos = free_index(dm)
    rows = np.broadcast_to(pos[:, None], vals.shape)
    cols = pos[dm.mesh.triangles[owner // n]]     # vertex DOF = vertex id
    keep = (rows >= 0) & (cols >= 0) & (vals != 0.0)
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(len(dm.free), np.count_nonzero(~dm.mesh.boundary_vertex)))


def assemble(dm, classes, f, load_rule="interp", lap_f=None):
    """Global matrix (CSR) and load over the DOF numbering dm.  Load
    rules: "interp" (f interpolated in P_k on the parent triangle),
    "exact" (f at the quadrature points) and "vem" (f interpolated in the
    virtual element space like the error reference; it needs lap_f, the
    Laplacian of f, and an element class with vem_load_matrix, which takes
    the DOFs of that interpolant to the load)."""
    if load_rule not in LOAD_RULES:
        raise AssemblyError(f"unknown load rule {load_rule!r}")
    if load_rule == "vem" and lap_f is None:
        raise AssemblyError('load rule "vem" needs the Laplacian of f')
    if load_rule == "vem" and not all(hasattr(ec, "vem_load_matrix")
                                      for ec, _ in classes):
        raise AssemblyError('load rule "vem" is for the sf-hct method')
    rows, cols, vals = [], [], []
    b = np.zeros(dm.total)
    v0 = dm.mesh.vertices[dm.mesh.triangles[:, 0]]
    for ec, idx in classes:
        gd = dm.element_dofs[idx]
        if gd.shape[1] != ec.ndof:
            raise AssemblyError("inconsistent local DOF count")
        n = ec.ndof
        rows.append(np.repeat(gd, n, axis=1).ravel())
        cols.append(np.tile(gd, (1, n)).ravel())
        vals.append(np.tile(ec.K_loc.ravel(), len(idx)))
        if f is None:
            continue
        if load_rule == "interp":
            pts = v0[idx][:, None, :] + ec.source_nodes[None, :, :]
            fv = np.asarray(f(pts[..., 0], pts[..., 1]))
            loads = fv @ ec.interp_load_matrix
        elif load_rule == "exact":
            qp = v0[idx][:, None, :] + ec.quad_points[None, :, :]
            fv = np.asarray(f(qp[..., 0], qp[..., 1]))
            loads = fv @ ec.load_matrix
        else:
            loads = ec.dof_values(f, lap_f, v0[idx]) @ ec.vem_load_matrix
        np.add.at(b, gd.ravel(), loads.ravel())
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dm.total, dm.total)).tocsr()
    return A, b


def reduce_dirichlet(dm, A, b):
    """The system on the free DOFs (homogeneous Dirichlet data), CSC."""
    free = dm.free
    return A[free][:, free].tocsc(), b[free]


def solve_reduced(solution_class, dm, A, b, classes, solver, tol,
                  return_system):
    """Eliminate the Dirichlet DOFs, solve, and wrap the full DOF vector
    (Dirichlet zeros) in solution_class; with return_system also the
    reduced matrix and load.  CG gets the P1 coarse space and the
    per-element free-DOF index for its two-level preconditioner."""
    A_red, b_red = reduce_dirichlet(dm, A, b)
    two_level = {}
    if solver == "cg":
        two_level = dict(coarse=coarse_space(dm, classes),
                         element_dofs=free_index(dm)[dm.element_dofs])
    x = solvers.solve_spd(A_red, b_red, method=solver, tol=tol, **two_level)
    dofs = np.zeros(dm.total)
    dofs[dm.free] = x
    sol = solution_class(dm.mesh, dm.k, dm, dofs, classes)
    if return_system:
        return sol, A_red, b_red
    return sol


@dataclass
class Field:
    """Piecewise field stored as per-class coefficient batches in each
    class's projection basis."""

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


@dataclass
class Solution:
    """Discrete solution; field_class is the Field subclass it returns."""

    mesh: object
    k: int
    dofmap: object
    dofs: np.ndarray                 # full DOF vector (Dirichlet zeros)
    classes: list                    # [(element class, element indices)]

    field_class = Field

    def solution_field(self):
        """Per-class projection coefficients of u_h."""
        out = []
        for ec, idx in self.classes:
            d = self.dofs[self.dofmap.element_dofs[idx]]
            out.append((ec, idx, d @ ec.projection.T))
        return self.field_class(self.mesh, self.k, out)

    def reference_field(self, problem):
        """Per-class projection coefficients of Pi_h I_h u, the projected
        virtual interpolant of the exact solution."""
        v0 = self.mesh.vertices[self.mesh.triangles[:, 0]]
        out = []
        for ec, idx in self.classes:
            d = ec.dof_values(problem.u, problem.lap_u, v0[idx])
            out.append((ec, idx, d @ ec.projection.T))
        return self.field_class(self.mesh, self.k, out)
