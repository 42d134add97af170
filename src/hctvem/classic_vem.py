"""Baselines: the classical stabilized virtual element on triangles
(nodal plus interior-moment DOFs, energy projection onto P_k, DOF-residual
stabilizer h^alpha sum F_i(v - Pv) F_i(w - Pw)) and the harmonic-enriched
stabilizer-free variant (projection onto P_k plus harmonic polynomials,
no stabilizer)."""

import numpy as np

from .dofmap import DofMap
from .pipeline import (AssemblyError, ElementClass, Field, Solution,
                       assemble, build_classes, solve_reduced)
from .polynomials import harmonic_basis, monomial_exponents
from .quadrature import quad_rule_triangle, quad_rule_edge

DOF_MODES = ("standard", "l2_normalized", "l2_normalized_x10")


def _edge_trace_data(ec, degree):
    """Per local edge of the element ec: physical points, weights (with
    length), outward normal, the (nq, k+1) map from the edge's k+1
    boundary DOFs (first vertex, interior nodes, second vertex) to trace
    values, and those DOFs' local indices."""
    k = ec.k
    v = ec.verts
    er = quad_rule_edge(degree)
    t = er.points
    tn = np.concatenate([[0.0], np.arange(1, k) / k, [1.0]])
    lag = np.ones((len(t), k + 1))
    for p in range(k + 1):
        for q in range(k + 1):
            if q != p:
                lag[:, p] *= (t - tn[q]) / (tn[p] - tn[q])
    out = []
    for ei, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        tang = v[b] - v[a]
        length = float(np.linalg.norm(tang))
        normal = np.array([tang[1], -tang[0]]) / length
        pts = v[a][None, :] + t[:, None] * tang[None, :]
        cols = [a, *(3 + ei * (k - 1) + np.arange(k - 1)), b] if k > 1 \
            else [a, b]
        out.append((pts, er.weights * length, normal, lag, np.array(cols)))
    return out


class EnrichedElementClass(ElementClass):
    """Cached per-shape data of a moment-DOF element with the energy
    projection onto P_k plus the harmonic polynomials of the given degrees
    (none: the classical projection onto P_k), and no stabilizer.

    Boundary DOFs are the values at the boundary nodes.  Interior DOFs are
    moments of v against the physical monomials (x-x0)^j (y-y0)^l centred
    at the barycenter, 0 <= j+l <= k-2, divided by a mode-dependent
    normalizer:
        standard            area of K
        l2_normalized       L2 norm of the monomial over K
        l2_normalized_x10   L2 norm over K, DOF multiplied by 10
    """

    def __init__(self, k, local_verts, harmonic_degrees, mode="standard"):
        if mode not in DOF_MODES:
            raise ValueError(f"unknown dof mode {mode!r}")
        super().__init__(k, local_verts)
        self.harmonic_degrees = tuple(harmonic_degrees)
        top = max(self.harmonic_degrees, default=k)
        self.moment_exps = monomial_exponents(k - 2)
        self.n_moment = len(self.moment_exps)
        self.ndof = self.n_boundary + self.n_moment

        # the L2 terms of a degree-m harmonic have degree 2m
        rule = quad_rule_triangle(max(2 * k + 6, 2 * top))
        self.quad_points, self.quad_weights = rule.physical(self.verts)
        d = self.quad_points - self.barycenter
        self.moment_values = np.column_stack(
            [d[:, 0] ** j * d[:, 1] ** l for (j, l) in self.moment_exps]) \
            if self.n_moment else np.zeros((len(self.quad_points), 0))
        if mode == "standard":
            d1, d2 = self.verts[1:] - self.verts[0]
            area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
            self.normalizer = np.full(self.n_moment, area)
        else:
            l2 = np.sqrt(self.quad_weights @ self.moment_values ** 2)
            self.normalizer = l2 if mode == "l2_normalized" else l2 / 10.0

        self.harm = harmonic_basis(k, self.harmonic_degrees, self.barycenter,
                                   self.diameter) \
            if self.harmonic_degrees else None
        self.basis_values = self._values(self.quad_points)
        self.basis_gradients = self._gradients(self.quad_points)
        self.dim = self.basis_values.shape[1]
        self._build_projection(2 * top + 6)

    def _values(self, pts):
        vals = self.poly.values(pts)
        if self.harm is None:
            return vals
        return np.column_stack([vals, self.harm.values(pts)])

    def _gradients(self, pts):
        grads = self.poly.gradients(pts)
        if self.harm is None:
            return grads
        return np.concatenate([grads, self.harm.gradients(pts)], axis=1)

    def _build_projection(self, edge_degree):
        """Energy projection from the DOFs: gradient moments by
        integration by parts, constant fixed by the boundary mean."""
        k, nb = self.k, self.n_boundary
        B = np.zeros((self.dim, self.ndof))
        if k >= 2:
            # (v, mu_b)_K from moment DOFs: physical monomial / d^(j+l)
            scale = np.array([self.diameter ** (j + l)
                              for (j, l) in self.moment_exps])
            mom_to_mu = np.diag(self.normalizer / scale)
            lap = self.poly.laplacian_map()     # Delta m_a in mu basis
            B[:self.poly.dim, nb:] -= lap @ mom_to_mu
            # harmonic members have vanishing Laplacian: no volume term
        mean_row = np.zeros(self.ndof)
        mean_basis = np.zeros(self.dim)
        for pts, w, n, lag, cols in _edge_trace_data(self, edge_degree):
            gn = self._gradients(pts) @ n
            B[:, cols] += gn.T @ (w[:, None] * lag)
            B[0, cols] = 0.0
            mean_row[cols] += w @ lag
            mean_basis += w @ self._values(pts)
        G = np.einsum("q,qad,qbd->ab", self.quad_weights,
                      self.basis_gradients, self.basis_gradients)
        self.stiffness = 0.5 * (G + G.T)
        G[0, :] = mean_basis
        B[0, :] = mean_row
        cond = np.linalg.cond(G)
        if cond > 1e14:
            raise AssemblyError(
                f"near-singular projection (cond {cond:.2e}); enrichment "
                "degrees likely insufficient or dependent")
        self.projection = np.linalg.solve(G, B)

    def dof_values(self, g, lap_g, origins):
        """(nE, ndof) DOFs of g on the copies translated by origins; they
        are values and moments of g, so lap_g is not used."""
        shift = origins[:, None, :]
        nodes = shift + self.boundary_nodes
        vals = np.asarray(g(nodes[..., 0], nodes[..., 1]), dtype=float)
        if not self.n_moment:
            return vals
        qp = shift + self.quad_points
        gq = np.asarray(g(qp[..., 0], qp[..., 1]))
        mom = (gq * self.quad_weights) @ self.moment_values / self.normalizer
        return np.concatenate([vals, mom], axis=-1)


class ClassicElementClass(EnrichedElementClass):
    """The classical stabilized element: the projection onto P_k (no
    harmonic degrees) plus the DOF-residual stabilizer scaled by
    h^alpha."""

    def __init__(self, k, local_verts, mode="standard", alpha=0.0):
        super().__init__(k, local_verts, (), mode)
        nb = self.n_boundary
        # D: P_k coefficients -> DOF values
        D = np.zeros((self.ndof, self.poly.dim))
        D[:nb] = self.poly.values(self.boundary_nodes)
        if self.n_moment:
            D[nb:] = (self.moment_values.T * self.quad_weights) \
                @ self.basis_values / self.normalizer[:, None]
        R = np.eye(self.ndof) - D @ self.projection
        self.stabilizer = self.diameter ** alpha * (R.T @ R)


# global solves -----------------------------------------------------------

# PolyField and ClassicSolution add nothing to the shared classes.  They
# exist so that each method's field and solution are distinct classes,
# which the benchmark's per-layer tracer times separately.
class PolyField(Field):
    pass


class ClassicSolution(Solution):
    field_class = PolyField


_CLASSIC_CACHE = {}
_ENRICHED_CACHE = {}


# _build_classes and _assemble_and_solve are this module's entries into
# the shared pipeline, apart from sf_vem's for the benchmark's tracer
def _build_classes(mesh, factory, cache, cache_key):
    return build_classes(mesh, factory, cache, cache_key)


def _assemble_and_solve(mesh, k, classes, problem, solver, tol, load_rule,
                        kappa):
    dm = DofMap(mesh, k)
    A, b = assemble(dm, classes, problem.f, load_rule)
    return solve_reduced(ClassicSolution, dm, A, b, classes, solver, tol,
                         kappa)


def solve_classic_vem(mesh, k, problem, dof_mode="standard", alpha=0.0,
                      solver="direct", tol=1e-12, load_rule="interp",
                      kappa=False):
    if not 1 <= k <= 4:
        raise ValueError(f"classical baseline supports k in 1..4, got {k}")
    classes = _build_classes(
        mesh, lambda lv: ClassicElementClass(k, lv, dof_mode, alpha),
        _CLASSIC_CACHE, (k, dof_mode, alpha))
    return _assemble_and_solve(mesh, k, classes, problem, solver, tol,
                               load_rule, kappa)


def solve_enriched_vem(mesh, k, problem, harmonic_degrees, solver="direct",
                       tol=1e-12, load_rule="interp", kappa=False):
    degrees = tuple(sorted(harmonic_degrees))
    if not degrees:
        raise ValueError("enriched variant needs at least one degree")
    if degrees[0] <= k:
        raise ValueError(
            f"harmonic enrichment degrees must exceed k={k}, got {degrees}")
    classes = _build_classes(
        mesh, lambda lv: EnrichedElementClass(k, lv, degrees),
        _ENRICHED_CACHE, (k, degrees))
    return _assemble_and_solve(mesh, k, classes, problem, solver, tol,
                               load_rule, kappa)
