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
    reference_coeffs(problem, origins)
                                (nE, dim) projection coefficients of the
                                exact solution on the translated copies

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


def assemble(dm, classes, f, load_rule="interp", lap_f=None):
    """Global matrix (CSR) and load over the DOF numbering dm.  Load
    rules: "interp" (f interpolated in P_k on the parent triangle),
    "exact" (f at the quadrature points) and "vem" (f interpolated in the
    virtual element space like the error reference; it needs lap_f, the
    Laplacian of f, and an element class with interpolant_coeffs)."""
    if load_rule not in LOAD_RULES:
        raise AssemblyError(f"unknown load rule {load_rule!r}")
    if load_rule == "vem" and lap_f is None:
        raise AssemblyError('load rule "vem" needs the Laplacian of f')
    if load_rule == "vem" and not all(hasattr(ec, "interpolant_coeffs")
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
            loads = ec.interpolant_coeffs(f, lap_f, v0[idx]) \
                @ ec.vem_load_matrix
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
    reduced matrix and load."""
    A_red, b_red = reduce_dirichlet(dm, A, b)
    x = solvers.solve_spd(A_red, b_red, method=solver, tol=tol)
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
        v0 = self.mesh.vertices[self.mesh.triangles[:, 0]]
        out = []
        for ec, idx in self.classes:
            out.append((ec, idx, ec.reference_coeffs(problem, v0[idx])))
        return self.field_class(self.mesh, self.k, out)
