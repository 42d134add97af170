"""Baselines: the classical stabilized virtual element on triangles
(nodal plus interior-moment DOFs, energy projection onto P_k, DOF-residual
stabilizer h^alpha sum F_i(v - Pv) F_i(w - Pw)) and the harmonic-enriched
stabilizer-free variant (projection onto P_k plus harmonic polynomials,
no stabilizer)."""

import numpy as np

from .dofmap import DofMap
from .pipeline import (AssemblyError, Field, Solution, assemble,
                       build_classes, solve_reduced, source_interp)
from .polynomials import ScaledMonomialBasis, harmonic_basis, \
    monomial_exponents
from .quadrature import quad_rule_triangle, quad_rule_edge

DOF_MODES = ("standard", "l2_normalized", "l2_normalized_x10")


class ClassicDofs:
    """Moment-DOF bookkeeping for one element shape.

    Boundary DOFs are the 3 vertex values and k-1 uniform nodes per edge
    (element-local order: edges 01, 12, 20 walked from the first vertex,
    matching DofMap).  Interior DOFs are moments of v against the physical
    monomials (x-x0)^j (y-y0)^l centred at the barycenter, 0 <= j+l <= k-2,
    divided by a mode-dependent normalizer:
        standard            area of K
        l2_normalized       L2 norm of the monomial over K
        l2_normalized_x10   L2 norm over K, DOF multiplied by 10
    The volume quadrature is exact to quad_degree (default 2k+6).
    """

    def __init__(self, k, local_verts, mode="standard", quad_degree=None):
        if mode not in DOF_MODES:
            raise ValueError(f"unknown dof mode {mode!r}")
        self.k = k
        self.mode = mode
        v = np.asarray(local_verts, dtype=float)
        self.verts = v
        self.barycenter = v.mean(axis=0)
        edges = v[[1, 2, 0]] - v
        self.diameter = float(np.linalg.norm(edges, axis=1).max())
        d1, d2 = v[1] - v[0], v[2] - v[0]
        self.area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])

        nodes = [v[0], v[1], v[2]]
        for (a, b) in ((0, 1), (1, 2), (2, 0)):
            for l in range(1, k):
                nodes.append(v[a] + (l / k) * (v[b] - v[a]))
        self.nodes = np.array(nodes)
        self.n_boundary = len(nodes)
        self.moment_exps = monomial_exponents(k - 2) if k >= 2 else []
        self.n_moment = len(self.moment_exps)
        self.ndof = self.n_boundary + self.n_moment

        self.rule = quad_rule_triangle(
            2 * k + 6 if quad_degree is None else quad_degree)
        self.quad_points, self.quad_weights = self.rule.physical(v)
        d = self.quad_points - self.barycenter
        self.moment_values = np.column_stack(
            [d[:, 0] ** j * d[:, 1] ** l for (j, l) in self.moment_exps]) \
            if self.n_moment else np.zeros((len(self.quad_points), 0))
        if self.n_moment:
            l2 = np.sqrt(self.quad_weights @ self.moment_values ** 2)
            if mode == "standard":
                self.normalizer = np.full(self.n_moment, self.area)
            elif mode == "l2_normalized":
                self.normalizer = l2
            else:
                self.normalizer = l2 / 10.0
        else:
            self.normalizer = np.zeros(0)

    def dof_values(self, func, origins=None):
        """DOF vector of an explicitly known function; given (nE, 2)
        origins, one row per copy of the element translated by each."""
        shift = 0.0 if origins is None else origins[:, None, :]
        nodes = shift + self.nodes
        vals = np.asarray(func(nodes[..., 0], nodes[..., 1]), dtype=float)
        if self.n_moment:
            qp = shift + self.quad_points
            fq = np.asarray(func(qp[..., 0], qp[..., 1]))
            mom = (fq * self.quad_weights) @ self.moment_values \
                / self.normalizer
            vals = np.concatenate([vals, mom], axis=-1)
        return vals


def _edge_trace_data(dofs, degree):
    """Per local edge: quad params, physical points, weights (with length),
    outward normal, and the (nq, k+1) map from the edge's k+1 boundary DOFs
    (first vertex, interior nodes, second vertex) to trace values."""
    k = dofs.k
    v = dofs.verts
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


class EnrichedElementClass:
    """Cached per-shape data of a moment-DOF element with the energy
    projection onto P_k plus the harmonic polynomials of the given degrees
    (none: the classical projection onto P_k), and no stabilizer."""

    def __init__(self, k, local_verts, harmonic_degrees, mode="standard"):
        self.k = k
        self.harmonic_degrees = tuple(harmonic_degrees)
        top = max(self.harmonic_degrees, default=k)
        # the L2 terms of a degree-m harmonic have degree 2m
        self.dofs = ClassicDofs(k, local_verts, mode,
                                max(2 * k + 6, 2 * top))
        d = self.dofs
        self.diameter = d.diameter
        self.ndof = d.ndof
        self.poly = ScaledMonomialBasis(d.barycenter, d.diameter, k)
        self.harm = harmonic_basis(k, self.harmonic_degrees, d.barycenter,
                                   d.diameter) \
            if self.harmonic_degrees else None
        self.quad_points = d.quad_points
        self.quad_weights = d.quad_weights
        self.basis_values = self._values(d.quad_points)
        self.basis_gradients = self._gradients(d.quad_points)
        self.dim = self.basis_values.shape[1]
        self._build_projection(2 * top + 6)
        Kc = self.projection.T @ self.grad_gram @ self.projection
        self.K_loc = 0.5 * (Kc + Kc.T)
        # load: (f, proj of unit DOF)_K
        self.load_matrix = (d.quad_weights[:, None] * self.basis_values) \
            @ self.projection
        self.source_nodes, self.interp_load_matrix = source_interp(
            k, d.verts, self.diameter, self.quad_points, self.load_matrix)

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
        d = self.dofs
        k, nb = self.k, d.n_boundary
        B = np.zeros((self.dim, d.ndof))
        if k >= 2:
            mu = ScaledMonomialBasis(d.barycenter, d.diameter, k - 2)
            # (v, mu_b)_K from moment DOFs: physical monomial / d^(j+l)
            scale = np.array([d.diameter ** (j + l)
                              for (j, l) in mu.exponents])
            mom_to_mu = np.diag(d.normalizer / scale)
            lap = self.poly.laplacian_map()     # Delta m_a in mu basis
            B[:self.poly.dim, nb:] -= lap @ mom_to_mu
            # harmonic members have vanishing Laplacian: no volume term
        mean_row = np.zeros(d.ndof)
        mean_basis = np.zeros(self.dim)
        for pts, w, n, lag, cols in _edge_trace_data(d, edge_degree):
            gn = self._gradients(pts) @ n
            B[:, cols] += gn.T @ (w[:, None] * lag)
            B[0, cols] = 0.0
            mean_row[cols] += w @ lag
            mean_basis += w @ self._values(pts)
        G = np.einsum("q,qad,qbd->ab", d.quad_weights,
                      self.basis_gradients, self.basis_gradients)
        self.grad_gram = 0.5 * (G + G.T)
        G[0, :] = mean_basis
        B[0, :] = mean_row
        cond = np.linalg.cond(G)
        if cond > 1e14:
            raise AssemblyError(
                f"near-singular projection (cond {cond:.2e}); enrichment "
                "degrees likely insufficient or dependent")
        self.projection = np.linalg.solve(G, B)

    def reference_coeffs(self, problem, origins):
        """Projection of the exact solution's DOFs, per element."""
        return self.dofs.dof_values(problem.u, origins) @ self.projection.T


class ClassicElementClass(EnrichedElementClass):
    """The classical stabilized element: the projection onto P_k (no
    harmonic degrees) plus the DOF-residual stabilizer scaled by
    h^alpha."""

    def __init__(self, k, local_verts, mode="standard", alpha=0.0):
        super().__init__(k, local_verts, (), mode)
        d = self.dofs
        # D: P_k coefficients -> DOF values
        D = np.zeros((d.ndof, self.poly.dim))
        D[:d.n_boundary] = self.poly.values(d.nodes)
        if d.n_moment:
            D[d.n_boundary:] = (d.moment_values.T * d.quad_weights) \
                @ self.basis_values / d.normalizer[:, None]
        R = np.eye(d.ndof) - D @ self.projection
        self.stab_factor = R.T @ R
        self.K_consistency = self.K_loc
        self.K_loc = self.K_consistency \
            + self.diameter ** alpha * self.stab_factor


# single-element spec surface ---------------------------------------------

def project_h1_classic(coords, k, dof_values, mode="standard"):
    """P_k coefficients (scaled monomials at the barycenter) of the energy
    projection of the virtual function with the given DOF values."""
    coords = np.asarray(coords, dtype=float)
    ec = ClassicElementClass(k, coords, mode)
    return ec.projection @ np.asarray(dof_values, dtype=float), ec.poly


def stabilizer_matrix(coords, k, mode="standard", alpha=0.0):
    coords = np.asarray(coords, dtype=float)
    ec = ClassicElementClass(k, coords, mode)
    return ec.diameter ** alpha * ec.stab_factor


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
                        return_system):
    dm = DofMap(mesh, k)
    A, b = assemble(dm, classes, problem.f, load_rule)
    return solve_reduced(ClassicSolution, dm, A, b, classes, solver, tol,
                         return_system)


def solve_classic_vem(mesh, k, problem, dof_mode="standard", alpha=0.0,
                      solver="direct", tol=1e-12, load_rule="interp",
                      return_system=False):
    if not 1 <= k <= 4:
        raise ValueError(f"classical baseline supports k in 1..4, got {k}")
    classes = _build_classes(
        mesh, lambda lv: ClassicElementClass(k, lv, dof_mode, alpha),
        _CLASSIC_CACHE, (k, dof_mode, alpha))
    return _assemble_and_solve(mesh, k, classes, problem, solver, tol,
                               load_rule, return_system)


def solve_enriched_vem(mesh, k, problem, harmonic_degrees, solver="direct",
                       tol=1e-12, load_rule="interp", return_system=False):
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
                               load_rule, return_system)
