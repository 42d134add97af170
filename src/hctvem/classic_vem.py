"""Baselines: the classical stabilized virtual element on triangles
(nodal plus interior-moment DOFs, energy projection onto P_k, DOF-residual
stabilizer h^alpha sum F_i(v - Pv) F_i(w - Pw)) and the harmonic-enriched
stabilizer-free variant (projection onto P_k plus harmonic polynomials,
no stabilizer)."""

import numpy as np

from .dofmap import DofMap, edge_slots
from .mesh import signed_areas
from .pipeline import (AssemblyError, ElementClass, Field, Solution,
                       assemble_load, assemble_matrix, build_classes,
                       solve_reduced)
from .polynomials import harmonic_basis, monomial_exponents
from .quadrature import MAX_DEGREE, quad_rule_triangle, quad_rule_edge

DOF_MODES = ("standard", "l2_normalized", "l2_normalized_x10")


def _edge_trace_data(ec, degree):
    """Per local edge of the element ec: physical points, weights (with
    length), outward normal, the (nq, k+1) map from the edge's k+1
    boundary DOFs (first vertex, interior nodes, second vertex) to trace
    values, and those DOFs' local slots (dofmap.edge_slots)."""
    k = ec.k
    v = ec.verts
    er = quad_rule_edge(degree)
    t = er.points
    tn = np.arange(k + 1) / k
    lag = np.ones((len(t), k + 1))
    for p in range(k + 1):
        for q in range(k + 1):
            if q != p:
                lag[:, p] *= (t - tn[q]) / (tn[p] - tn[q])
    out = []
    for cols in edge_slots(k):
        tang = v[cols[-1]] - v[cols[0]]
        length = float(np.linalg.norm(tang))
        normal = np.array([tang[1], -tang[0]]) / length
        pts = v[cols[0]][None, :] + t[:, None] * tang[None, :]
        out.append((pts, er.weights * length, normal, lag, cols))
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

        # the L2 terms of a degree-m harmonic have degree 2m
        rule = quad_rule_triangle(max(2 * k + 6, 2 * top))
        self.quad_points, self.quad_weights = rule.physical(self.verts)
        # scalar exponents, so that x ** 2 is x * x: the power loop of an
        # array exponent (AffineMonomialBasis.values) is an ulp off it,
        # and the round-off-dominated classic k = 4, alpha = -2 levels
        # move by 6e-4 relative under that ulp
        d = self.quad_points - self.barycenter
        self.moment_values = np.empty((len(d), self.n_interior))
        for i, (j, l) in enumerate(self.moment_exps):
            self.moment_values[:, i] = d[:, 0] ** j * d[:, 1] ** l
        if mode == "standard":
            self.normalizer = np.full(self.n_interior,
                                      abs(signed_areas(self.verts)))
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
        nb = self.n_boundary
        B = np.zeros((self.dim, self.ndof))
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

    def interior_dofs(self, g, lap_g, origins):
        """(nE, n_interior) the normalized moments of g on the copies
        translated by origins; lap_g is not used."""
        gq = self.sample(g, origins, self.quad_points)
        return (gq * self.quad_weights) @ self.moment_values / self.normalizer


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


# Always empty, as classes are built per level: bench/worker.py checks
# that they are empty, and tests/test_bench_hooks.py that they exist.
_CLASSIC_CACHE = {}
_ENRICHED_CACHE = {}


# _build_classes and _assemble_and_solve are this module's entries into
# the shared pipeline, apart from sf_vem's for the benchmark's tracer
_build_classes = build_classes


def _assemble_and_solve(mesh, k, classes, problem, solver, tol, load_rule,
                        kappa):
    dm = DofMap(mesh, k)
    b = assemble_load(dm, classes, problem.f, load_rule, problem.lap_f)
    S = assemble_matrix(dm, classes, skeleton=True)
    return solve_reduced(ClassicSolution, dm, S, b, classes, solver, tol,
                         kappa)


def check_settings(method, k, harmonic_degrees=()):
    """The sorted harmonic degrees of `method` at degree k.  Raises
    ValueError when the baseline ("classic" or "enriched") does not take k
    or the degrees; ExperimentConfig.validate reports the same text.
    sf-hct sets no rule here."""
    degrees = tuple(sorted(harmonic_degrees))
    if method == "classic" and not 1 <= k <= 4:
        raise ValueError(f"classic baseline supports k in 1..4, got {k}")
    if method == "enriched":
        if not degrees:
            raise ValueError("enriched method needs harmonic degrees")
        if degrees[0] <= k:
            raise ValueError(
                f"harmonic degrees must exceed k={k}, got {degrees}")
        # a degree-m harmonic needs a volume rule of degree 2m
        if 2 * degrees[-1] > MAX_DEGREE:
            raise ValueError(f"harmonic degrees above {MAX_DEGREE // 2} "
                             "are not supported by the quadrature")
    return degrees


def solve_classic_vem(mesh, k, problem, dof_mode="standard", alpha=0.0,
                      solver="direct", tol=1e-12, load_rule="interp",
                      kappa=False):
    check_settings("classic", k)
    classes = _build_classes(
        mesh, lambda lv: ClassicElementClass(k, lv, dof_mode, alpha))
    return _assemble_and_solve(mesh, k, classes, problem, solver, tol,
                               load_rule, kappa)


def solve_enriched_vem(mesh, k, problem, harmonic_degrees, solver="direct",
                       tol=1e-12, load_rule="interp", kappa=False):
    degrees = check_settings("enriched", k, harmonic_degrees)
    classes = _build_classes(
        mesh, lambda lv: EnrichedElementClass(k, lv, degrees))
    return _assemble_and_solve(mesh, k, classes, problem, solver, tol,
                               load_rule, kappa)
