"""The method-independent pipeline shared by all three methods: element
classes per translation class, global assembly, Dirichlet reduction,
static condensation and solve, and the discrete and reference fields with
their error norms.
A method hands build_classes a factory(local) for the class of each
translation class.  Classic and enriched build one per class on every
level and keep nothing, as a level meets each class once and the next
level's shapes are halved; sf-hct builds one per shape up to a
power-of-two scale (sf_vem.sf_class), as that element is scale-free.

ElementClass(k, verts) sets the geometry every method shares:

    k                           polynomial degree
    verts                       (3, 2) vertices, local coordinates
    diameter, barycenter        of the triangle
    boundary_nodes, n_boundary  the 3k boundary nodes in local DOF order
                                (dofmap.boundary_nodes)
    n_interior, ndof            dim P_{k-2}, and 3k + n_interior
    poly                        the P_k basis AffineMonomialBasis about the
                                barycenter with J = diameter * I

Every method's element class derives from it and sets what differs
between methods:

    projection                  (dim, ndof) DOFs -> projection coefficients
    stiffness                   (dim, dim) H1 Gram of the projection basis
    stabilizer                  (ndof, ndof) added to the stiffness, or
                                0.0 (the default: no stabilizer)
    quad_points, quad_weights   volume quadrature, local coordinates
    basis_values                (nq, dim) projection basis at quad_points
    basis_gradients             (nq, dim, 2) its gradients
    interior_dofs(g, lap_g, origins)
                                (nE, n_interior) interior DOFs of I_h g
                                (lap_g: the Laplacian of g)

ElementClass owns the rest: sample(g, origins, points) is g on the
translated copies (g gets x and y as two contiguous (nE, npts) arrays),
and dof_values(g, lap_g, origins), g at the boundary
nodes and then interior_dofs, are the DOFs of the virtual interpolant
I_h g.  It derives, once per class, the local stiffness K_loc, its
static condensation `condensed` (the interior DOFs eliminated, which
leaves the Schur complement S_loc on the 3k boundary DOFs), the load
operators of the three load rules (load_matrix, interp_load,
vem_load_matrix; interp_load reads lagrange_values, the P_k Lagrange
basis of the triangle's lattice at quad_points, which sf-hct takes from
the unit triangle), interior_spectrum, the extreme eigenvalues of K_ii,
and error_factors, the triangular factors R_M and R_S
that take a DOF difference straight to the L2 norm and H1 seminorm of
its projection.  The sf-hct class of each level derives none of them: it
takes them from its shape's base build, scaled by exact powers of two
(sf_vem.ScaledSfClass).

Every level is solved on its skeleton, the free vertex and edge DOFs:
the interior DOFs of each element couple only within it, so they are
eliminated class by class before the global factor (Condensation), and
recovered afterwards.  Degree 1 has none and takes the same path: its
interior blocks are empty, so its skeleton system is the reduced one bit
for bit.  DofMap numbers the free DOFs first, so the reduced system is
the block [0, n_free) of its numbering and the skeleton the block
[0, n_skeleton); assembly drops the Dirichlet entries, and the reduced
load and solution are slices.  The full reduced matrix is assembled only
when read (Solution.matrix).  kappa multiplies by it element by element
(Condensation.matvec), unless the level is decoupled: assembly keeps no
entry of any class's interior-boundary block K_ib (true_entries).  Then
the reduced matrix is S plus the blocks K_ii on its diagonal, and kappa
takes S's extremes and interior_spectrum's.  That is sf-hct at every k,
and every method at k = 1, which has no interior block.

Assembly emits only true nonzeros (true_entries): an element entry
|K_ij| <= 1e-12 sqrt(K_ii K_jj) is the round-off of a true zero and is
dropped, from S_loc and K_loc alike.  Such entries are the cot(pi/2) = 0
coupling across the right angles of both mesh families at k = 1..2,
sf-hct's K_ib at every k, and couplings that the symmetry of an
isosceles shape cancels.  Scaled by sqrt(K_ii K_jj), on both families at
level 3 every one is <= 5.6e-15 (1.6e-14 in K_ii of enriched k = 5 with
five harmonic degrees) and every true entry >= 1.3e-5, for each method,
degree and DOF mode the tests run.  So at k = 1 on `uniform` S is the
5-point stencil, and sf-hct's assembled A is block diagonal, S plus the
blocks K_ii, which Condensation.decoupled reads off the same cut.

Local coordinates put the class's first vertex at the origin; `origins`
are the first vertices of the class's triangles.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve

from . import solvers
from .dofmap import boundary_nodes
from .polynomials import (AffineMonomialBasis, lattice_multi_indices,
                          monomial_dim)

LOAD_RULES = ("interp", "exact", "vem")


class AssemblyError(RuntimeError):
    pass


# decimals kept of the edge vectors that key a translation class
_KEY_DIGITS = 12

# true_entries' cut, relative to sqrt(K_ii K_jj)
_ROUND_OFF = 1e-12


def group_elements(mesh):
    """Group triangles into translation classes (v1-v0, v2-v0), keyed by
    those edge vectors rounded to _KEY_DIGITS decimals.  The key only
    groups: build_classes builds each class from its first triangle.

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


def build_classes(mesh, factory):
    """[(element class, triangle indices)] per translation class.
    factory(local) gives the class of the exact local vertices of the
    class's first triangle (its vertices less its first vertex), not of
    the rounded key; it is called once per translation class."""
    out = []
    for idx in group_elements(mesh).values():
        v = mesh.vertices[mesh.triangles[idx[0]]]
        out.append((factory(v - v[0]), idx))
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
        self.n_interior = monomial_dim(k - 2)
        self.ndof = self.n_boundary + self.n_interior

    def sample(self, g, origins, points):
        """(nE, npts) g at points on the copies translated by origins; g
        gets x and y as two contiguous (nE, npts) arrays."""
        return np.asarray(g(origins[:, :1] + points[:, 0],
                            origins[:, 1:] + points[:, 1]), dtype=float)

    def dof_values(self, g, lap_g, origins):
        """(nE, ndof) DOFs of I_h g on the copies translated by origins:
        g at the boundary nodes, then the method's interior_dofs."""
        values = self.sample(g, origins, self.boundary_nodes)
        if not self.n_interior:
            return values
        return np.concatenate(
            [values, self.interior_dofs(g, lap_g, origins)], axis=1)

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
    def condensed(self):
        """(chol, X, S_loc), the static condensation of K_loc (Guyan, AIAA
        J. 1965): with b the 3k boundary DOFs and i the interior ones, chol
        is the lower Cholesky factor of K_ii, X = K_ii^-1 K_ib and S_loc =
        K_bb - K_bi X, which the skeleton system assembles.  With no
        interior DOFs (k = 1) the blocks are empty and S_loc equals K_loc.
        Raises solvers.NotSpdError when K_ii is not positive definite."""
        nb, K = self.n_boundary, self.K_loc
        try:
            chol = np.linalg.cholesky(K[nb:, nb:])
        except np.linalg.LinAlgError as exc:
            raise solvers.NotSpdError(
                f"interior block of the degree-{self.k} element on the "
                f"local vertices {self.verts.tolist()} is not positive "
                "definite") from exc
        X = cho_solve((chol, True), K[nb:, :nb])
        S = K[:nb, :nb] - K[:nb, nb:] @ X
        return chol, X, 0.5 * (S + S.T)

    @cached_property
    def interior_spectrum(self):
        """(lambda_min, lambda_max) of the interior block K_ii of K_loc;
        (inf, -inf), which min and max pass over, when it is empty
        (k = 1)."""
        nb = self.n_boundary
        eig = np.linalg.eigvalsh(self.K_loc[nb:, nb:])
        return float(eig.min(initial=np.inf)), float(eig.max(initial=-np.inf))

    @cached_property
    def load_matrix(self):
        """(nq, ndof): f at quad_points -> (f, Pi phi_j)_K."""
        return (self.quad_weights[:, None] * self.basis_values) \
            @ self.projection

    @property
    def lattice(self):
        """(dim P_k, 2) the P_k lattice of the triangle."""
        k, v = self.k, self.verts
        return np.array([(a * v[0] + b * v[1] + c * v[2]) / k
                         for (a, b, c) in lattice_multi_indices(k)])

    @property
    def lagrange_values(self):
        """(nq, dim P_k) the P_k Lagrange basis of lattice at
        quad_points."""
        return self.poly.values(self.quad_points) \
            @ np.linalg.inv(self.poly.values(self.lattice))

    @cached_property
    def interp_load(self):
        """(nodes, matrix): the P_k lattice of the triangle and the matrix
        taking f at it to (I_k f, Pi phi_j)_K, I_k f being the P_k Lagrange
        interpolant of f.  For sf-hct it coincides with the "vem" load at
        k = 1; against the reference L2 errors that "vem" reproduces it is
        1 % off at k = 2, 4 and 6, 4 % at k = 5 and 1.5x at k = 3."""
        return self.lattice, self.lagrange_values.T @ self.load_matrix

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


def true_entries(K):
    """(m, m) bool, the entries of the element matrix K that assembly
    keeps: |K_ij| > _ROUND_OFF * sqrt(K_ii K_jj).  The others are true
    zeros held as round-off (see the module docstring)."""
    d = np.diag(K)
    return np.abs(K) > _ROUND_OFF * np.sqrt(np.abs(np.outer(d, d)))


def assemble_matrix(dm, classes, skeleton=False):
    """The reduced matrix (CSC) over the DOF numbering dm, the Dirichlet
    entries dropped: each class's K_loc on the free DOFs [0, dm.n_free)
    or, with skeleton, its condensed S_loc on the free vertex and edge
    DOFs [0, dm.n_skeleton).  Only the element entries above 1e-12
    sqrt(K_ii K_jj) are emitted (true_entries; the round-off below the
    cut is <= 1.6e-14 of that scale, the true entries >= 1.3e-5), so the
    pattern is the true stencil: at k = 1 on `uniform` S is the 5-point
    one, and sf-hct's A is S plus the blocks K_ii on its diagonal.  At
    k = 1, S_loc is K_loc, so S is A bit for bit.  The triplets are
    int32, the index type scipy converts them to, gathered from
    broadcast views of the element DOFs; int32 holds every DOF index up
    to mesh.MAX_LEVEL at k <= 6 (about 1.5e8 DOFs)."""
    n = dm.n_skeleton if skeleton else dm.n_free
    if dm.total > np.iinfo(np.int32).max:
        raise AssemblyError(f"{dm.total} DOFs overflow int32 indices")
    rows, cols, vals = [], [], []
    for ec, idx in classes:
        gd = dm.element_dofs[idx]
        if gd.shape[1] != ec.ndof:
            raise AssemblyError("inconsistent local DOF count")
        K = ec.condensed[2] if skeleton else ec.K_loc
        m = len(K)
        # entry (e, i, j) is K[i, j] at (gd[e, i], gd[e, j]), element by
        # element and row by row: the bits of summed duplicates depend on
        # that order
        gd = gd[:, :m].astype(np.int32)
        free = gd < n
        keep = free[:, :, None] & free[:, None, :] & true_entries(K)
        shape = keep.shape
        rows.append(np.broadcast_to(gd[:, :, None], shape)[keep])
        cols.append(np.broadcast_to(gd[:, None, :], shape)[keep])
        vals.append(np.broadcast_to(K, shape)[keep])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsc()


def assemble_load(dm, classes, f, load_rule="interp", lap_f=None):
    """Global load over the DOF numbering dm.  Load rules: "interp" (f
    interpolated in P_k on the parent triangle), "exact" (f at the
    quadrature points) and "vem" (f interpolated in the virtual element
    space like the error reference; it needs lap_f, the Laplacian of
    f)."""
    if load_rule not in LOAD_RULES:
        raise AssemblyError(f"unknown load rule {load_rule!r}")
    if load_rule == "vem" and lap_f is None:
        raise AssemblyError('load rule "vem" needs the Laplacian of f')
    b = np.zeros(dm.total)
    v0 = dm.mesh.vertices[dm.mesh.triangles[:, 0]]
    for ec, idx in classes:
        if load_rule == "vem":
            loads = ec.dof_values(f, lap_f, v0[idx]) @ ec.vem_load_matrix
        else:
            points, operator = ec.interp_load if load_rule == "interp" \
                else (ec.quad_points, ec.load_matrix)
            loads = ec.sample(f, v0[idx], points) @ operator
        np.add.at(b, dm.element_dofs[idx].ravel(), loads.ravel())
    return b


class Condensation:
    """Static condensation of one level's interior DOFs.  The full reduced
    system A is the block [0, n_free) of the DOF numbering, and its
    leading n_skeleton unknowns are the free vertex and edge DOFs, the
    skeleton (DofMap numbers them first); its Schur complement there is
    the skeleton system S that assemble_matrix(dm, classes, skeleton=True)
    assembles from S_loc.

    condense and back_substitute take a load r of A to S's load and S's
    solution back to A's; between them A^-1 r is exact block elimination
    (inverse).  With no interior DOFs (k = 1) S is A, and both return
    their vector's values.  matvec multiplies by A element by element,
    without assembling it: one gather of x over all elements, one K_loc
    product per class and one scatter-add.  One slot array serves all
    three: each class's _slots are views of its rows.  matrix is A
    itself, assembled on first read; shape is A's.  When the level is
    decoupled, A is S plus the interior blocks on its diagonal, and
    interior_spectrum gives their extremes."""

    def __init__(self, dm, classes):
        self.dm, self.classes = dm, classes
        self.shape = (dm.n_free, dm.n_free)
        self.n_skeleton = dm.n_skeleton
        # (T, ndof) positions of the elements' DOFs in A, class after
        # class, Dirichlet DOFs at a discarded position n; _slots are the
        # views of each class's rows, split at _ends
        self._ends = np.cumsum([len(idx) for _, idx in classes])[:-1]
        slots = dm.element_dofs[np.concatenate([idx for _, idx in classes])]
        self._all_slots = np.minimum(slots, dm.n_free, out=slots)
        self._slots = np.split(slots, self._ends)

    def matvec(self, x):
        """A x, summed from the K_loc products of the elements."""
        n, slots = self.shape[0], self._all_slots
        xe = np.append(x, 0.0)[slots]
        for (ec, _), xc in zip(self.classes, np.split(xe, self._ends)):
            xc[:] = xc @ ec.K_loc
        return np.bincount(slots.ravel(), weights=xe.ravel(),
                           minlength=n + 1)[:n]

    @cached_property
    def matrix(self):
        """The full reduced matrix A (CSC)."""
        return assemble_matrix(self.dm, self.classes)

    def condense(self, r):
        """S's load g = r_b - sum_e X_e^T r_i,e of A's load r."""
        n, n_s = self.shape[0], self.n_skeleton
        g = np.zeros(n + 1)
        for (ec, _), slots in zip(self.classes, self._slots):
            nb, (_, X, _) = ec.n_boundary, ec.condensed
            g -= np.bincount(slots[:, :nb].ravel(),
                             weights=(r[slots[:, nb:]] @ X).ravel(),
                             minlength=n + 1)
        return r[:n_s] + g[:n_s]

    def back_substitute(self, x, r):
        """A's solution from S's solution x and A's load r: the interior
        DOFs u_i = K_ii^-1 r_i - X x_b, one batch per class."""
        n, n_s = self.shape[0], self.n_skeleton
        u = np.zeros(n + 1)
        u[:n_s] = x
        for (ec, _), slots in zip(self.classes, self._slots):
            nb, (chol, X, _) = ec.n_boundary, ec.condensed
            interior = slots[:, nb:]
            u[interior] = cho_solve((chol, True), r[interior].T).T \
                - u[slots[:, :nb]] @ X.T
        return u[:n]

    def inverse(self, skeleton_inverse):
        """r -> A^-1 r, given x -> S^-1 x."""
        return lambda r: self.back_substitute(
            skeleton_inverse(self.condense(r)), r)

    @cached_property
    def decoupled(self):
        """Whether assembly keeps no entry of any class's K_ib
        (true_entries), so that A is S plus the interior blocks K_ii on
        its diagonal."""
        return not any(true_entries(ec.K_loc)[ec.n_boundary:,
                                              :ec.n_boundary].any()
                       for ec, _ in self.classes)

    @cached_property
    def interior_spectrum(self):
        """(lambda_min, lambda_max) over the interior blocks of all
        classes; (inf, -inf) when there are none."""
        spectra = [ec.interior_spectrum for ec, _ in self.classes]
        return (min(lo for lo, _ in spectra),
                max(hi for _, hi in spectra))


def solve_reduced(solution_class, dm, S, b, classes, solver, tol,
                  kappa=False):
    """Eliminate the Dirichlet DOFs, condense the interior DOFs, solve on
    the skeleton and back-substitute; S is the skeleton matrix of
    assemble_matrix(dm, classes, skeleton=True) and b the load on all
    DOFs.  Wrap the full DOF vector (Dirichlet zeros), the condensation
    (whose matrix is the reduced matrix), the reduced load and, with
    kappa, the kappa_2 of the full reduced matrix (else None, as on a
    level without free DOFs), which solvers.solve_spd computes with the
    solve, in solution_class.  CG gets the P1 coarse space on the skeleton
    and the elements' skeleton DOFs for its two-level preconditioner."""
    cond = Condensation(dm, classes)
    b_red = b[:dm.n_free]
    two_level = {}
    if solver == "cg":
        two_level = dict(coarse=dm.coarse_space(),
                         element_dofs=dm.element_dofs[:, :3 * dm.k])
    x, kappa = solvers.solve_spd(
        S, cond.condense(b_red), method=solver, tol=tol, kappa=kappa,
        condensed=cond, **two_level)
    dofs = np.zeros(dm.total)
    dofs[:dm.n_free] = cond.back_substitute(x, b_red)
    return solution_class(dm.mesh, dm.k, dm, dofs, classes, cond, b_red,
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
    condensation: Condensation       # of the level's interior DOFs
    load: np.ndarray                 # reduced load vector
    kappa: float = None              # kappa_2 of matrix, if asked for

    field_class = Field

    @property
    def matrix(self):
        """The reduced system matrix (CSC) on all free DOFs, assembled on
        first read: the solve ran on the condensed skeleton."""
        return self.condensation.matrix

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
