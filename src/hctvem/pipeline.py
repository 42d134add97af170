"""The method-independent pipeline shared by all three methods: element
classes per translation class, global assembly, Dirichlet reduction and
solve, and the discrete and reference fields with their error norms.

ElementClass(k, verts) sets the geometry every method shares:

    k                           polynomial degree
    verts                       (3, 2) vertices, local coordinates
    diameter, barycenter        of the triangle
    boundary_nodes, n_boundary  the 3k boundary nodes in local DOF order
                                (dofmap.boundary_nodes)
    poly                        the P_k basis AffineMonomialBasis about the
                                barycenter with J = diameter * I

Every method's element class derives from it and sets what differs
between methods:

    ndof                        local DOF count
    projection                  (dim, ndof) DOFs -> projection coefficients
    stiffness                   (dim, dim) H1 Gram of the projection basis
    stabilizer                  (ndof, ndof) added to the stiffness, or
                                0.0 (the default: no stabilizer)
    quad_points, quad_weights   volume quadrature, local coordinates
    basis_values                (nq, dim) projection basis at quad_points
    basis_gradients             (nq, dim, 2) its gradients
    dof_values(g, lap_g, origins)
                                (nE, ndof) DOFs of the virtual interpolant
                                of g (lap_g: its Laplacian) on the
                                translated copies: the DOFs of I_h u
                                whose projection is the error reference

ElementClass derives from these, once per class, the local stiffness
K_loc, the load operators of the three load rules (load_matrix,
interp_load, vem_load_matrix), p1_dofs, the DOFs of the barycentric
coordinates that span the coarse space of the CG solve, and
error_factors, the triangular factors R_M and R_S that take a DOF
difference straight to the L2 norm and H1 seminorm of its projection.

Local coordinates put the class's first vertex at the origin; `origins`
are the first vertices of the class's triangles.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import solvers
from .dofmap import boundary_nodes
from .polynomials import AffineMonomialBasis, lattice_multi_indices

LOAD_RULES = ("interp", "exact", "vem")


class AssemblyError(RuntimeError):
    pass


# decimals kept of the edge vectors that key a translation class
_KEY_DIGITS = 12


def group_elements(mesh):
    """Group triangles into translation classes (v1-v0, v2-v0).

    Both mesh families consist of translated copies of a handful of
    shapes, so all element-level matrices are computed once per class.
    """
    v = mesh.vertices[mesh.triangles]
    rel = v[:, 1:, :] - v[:, :1, :]
    keys = np.round(rel.reshape(len(v), 4), _KEY_DIGITS)
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


class ElementClass:
    """Per-shape geometry, and the data derived from a method's
    projection, stiffness Gram and DOF functional (see the module
    docstring)."""

    stabilizer = 0.0

    def __init__(self, k, verts):
        self.k = k
        self.verts = np.asarray(verts, dtype=float)
        edges = self.verts[[1, 2, 0]] - self.verts
        self.diameter = float(np.linalg.norm(edges, axis=1).max())
        self.barycenter = self.verts.mean(axis=0)
        self.boundary_nodes = boundary_nodes(self.verts, k)
        self.n_boundary = len(self.boundary_nodes)

    @cached_property
    def poly(self):
        """The h-scaled monomials of degree <= k about the barycenter."""
        return AffineMonomialBasis(self.barycenter,
                                   self.diameter * np.eye(2), self.k)

    @cached_property
    def K_loc(self):
        """(ndof, ndof) a(Pi phi_i, Pi phi_j) plus the stabilizer."""
        K = self.projection.T @ self.stiffness @ self.projection
        return 0.5 * (K + K.T) + self.stabilizer

    @cached_property
    def load_matrix(self):
        """(nq, ndof): f at quad_points -> (f, Pi phi_j)_K."""
        return (self.quad_weights[:, None] * self.basis_values) \
            @ self.projection

    @cached_property
    def interp_load(self):
        """(nodes, matrix): the P_k lattice of the triangle and the matrix
        taking f at it to (I_k f, Pi phi_j)_K, I_k f being the P_k Lagrange
        interpolant of f.  For sf-hct it coincides with the "vem" load at
        k = 1; against the reference L2 errors that "vem" reproduces it is
        1 % off at k = 2, 4 and 6, 4 % at k = 5 and 1.5x at k = 3."""
        k, v = self.k, self.verts
        lat = np.array([(a * v[0] + b * v[1] + c * v[2]) / k
                        for (a, b, c) in lattice_multi_indices(k)])
        lag_quad = self.poly.values(self.quad_points) \
            @ np.linalg.inv(self.poly.values(lat))
        return lat, lag_quad.T @ self.load_matrix

    @cached_property
    def vem_load_matrix(self):
        """(ndof, ndof): DOFs of the virtual interpolant I_h f ->
        (Pi I_h f, Pi phi_j)_K."""
        return self.projection.T @ (self.basis_values.T @ self.load_matrix)

    @cached_property
    def error_factors(self):
        """(R_M, R_S), each (ndof, ndof) upper triangular: for the DOFs d
        of v, |R_M d|^2 = ||Pi v||^2_L2 and |R_S d|^2 = |Pi v|^2_H1 on the
        element, by the volume quadrature.  They are the R of the QR of
        the sqrt(w)-weighted values and stacked x- and y-gradients of the
        projected DOF basis.  Not the Grams R^T R: d^T G d loses digits to
        cancellation when d is close to a constant, the kernel of the H1
        Gram."""
        sw = np.sqrt(self.quad_weights)[:, None]
        grads = self.basis_gradients
        values = sw * self.basis_values
        gradients = np.vstack([sw * grads[:, :, 0], sw * grads[:, :, 1]])
        return (np.linalg.qr(values @ self.projection, mode="r"),
                np.linalg.qr(gradients @ self.projection, mode="r"))

    @cached_property
    def p1_dofs(self):
        """(ndof, 3) DOFs of the barycentric coordinates of verts."""
        # row i: (c0, cx, cy) with lambda_i = c0 + cx x + cy y
        coeffs = np.linalg.inv(np.vstack([np.ones(3), self.verts.T]))
        origin = np.zeros((1, 2))
        no_laplacian = lambda x, y: np.zeros_like(x)
        return np.column_stack(
            [self.dof_values(lambda x, y, c=c: c[0] + c[1] * x + c[2] * y,
                             no_laplacian, origin)[0] for c in coeffs])


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
    Laplacian of f)."""
    if load_rule not in LOAD_RULES:
        raise AssemblyError(f"unknown load rule {load_rule!r}")
    if load_rule == "vem" and lap_f is None:
        raise AssemblyError('load rule "vem" needs the Laplacian of f')
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
            nodes, interp_load = ec.interp_load
            pts = v0[idx][:, None, :] + nodes[None, :, :]
            fv = np.asarray(f(pts[..., 0], pts[..., 1]))
            loads = fv @ interp_load
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
                  kappa=False):
    """Eliminate the Dirichlet DOFs, solve, and wrap the full DOF vector
    (Dirichlet zeros), the reduced matrix and load and, with kappa, their
    kappa_2 (else None, as on a level without free DOFs), which
    solvers.solve_spd computes beside the solve, in solution_class.  CG
    gets the P1 coarse space and the per-element free-DOF index for its
    two-level preconditioner."""
    A_red, b_red = reduce_dirichlet(dm, A, b)
    two_level = {}
    if solver == "cg":
        two_level = dict(coarse=coarse_space(dm, classes),
                         element_dofs=free_index(dm)[dm.element_dofs])
    x, kappa = solvers.solve_spd(A_red, b_red, method=solver, tol=tol,
                                 kappa=kappa, **two_level)
    dofs = np.zeros(dm.total)
    dofs[dm.free] = x
    return solution_class(dm.mesh, dm.k, dm, dofs, classes, A_red, b_red,
                          kappa)


@dataclass
class Field:
    """Piecewise field stored as per-class batches of local DOF vectors;
    its projection Pi_h is what the error norms measure."""

    mesh: object
    k: int
    parts: list                      # [(class, element idx, dofs)]

    def error_norms(self, other):
        """(L2 norm, H1 seminorm) of Pi_h (self - other), summed over the
        classes from each class's error_factors."""
        if other.mesh is not self.mesh or other.k != self.k:
            raise ValueError("fields live on different meshes or degrees")
        l2 = 0.0
        h1 = 0.0
        for (ec, idx, da), (ec2, idx2, db) in zip(self.parts, other.parts,
                                                  strict=True):
            if ec is not ec2:
                raise ValueError("fields built by different element classes")
            if not np.array_equal(idx, idx2):
                raise ValueError("field partitions disagree")
            R_M, R_S = ec.error_factors
            # subtract the DOFs first: the fields agree to the
            # discretisation error, so projecting each and then
            # subtracting would lose digits to cancellation
            d = da - db
            l2 += float(np.sum((d @ R_M.T) ** 2))
            h1 += float(np.sum((d @ R_S.T) ** 2))
        return np.sqrt(l2), np.sqrt(h1)


@dataclass
class Solution:
    """Discrete solution; field_class is the Field subclass it returns."""

    mesh: object
    k: int
    dofmap: object
    dofs: np.ndarray                 # full DOF vector (Dirichlet zeros)
    classes: list                    # [(element class, element indices)]
    matrix: object                   # reduced system matrix (CSC)
    load: np.ndarray                 # reduced load vector
    kappa: float = None              # kappa_2 of matrix, if asked for

    field_class = Field

    def solution_field(self):
        """Per-class local DOFs of u_h."""
        return self.field_class(self.mesh, self.k, [
            (ec, idx, self.dofs[self.dofmap.element_dofs[idx]])
            for ec, idx in self.classes])

    def reference_field(self, problem):
        """Per-class DOFs of I_h u, the virtual interpolant of the exact
        solution; its projection Pi_h I_h u is the error reference."""
        v0 = self.mesh.vertices[self.mesh.triangles[:, 0]]
        return self.field_class(self.mesh, self.k, [
            (ec, idx, ec.dof_values(problem.u, problem.lap_u, v0[idx]))
            for ec, idx in self.classes])
