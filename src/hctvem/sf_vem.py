"""Stabilizer-free virtual element method: DOFs are edge nodal values plus
coefficients of -Delta(v) in the element's affine monomial basis about the
barycenter (scaled by the squared diameter).  The local stiffness is the
energy product of the HCT projections of the DOF basis.

Each class's HCT space is the affine image of the unit triangle's, which
is built once per degree (hct.reference_space).  The interior P_{k-2}
basis and the P_k Lagrange basis of the lattice are polynomials in the
same affine coordinates, so their values at the mapped quadrature points
are the unit triangle's too, computed once per degree (_unit_table).

The interior DOFs of I_h g are the moments of -Delta g against P_{k-2}.
That integrand is smooth on the whole triangle, so they take one rule of
degree 2k + 6 on the parent triangle ((k + 4)^2 points) in place of the
HCT split's three sub-triangle rules (3 (k + 4)^2), mapped from the unit
triangle's the same way (also in _unit_table).  The projection keeps the
HCT rule: its integrand is only piecewise polynomial.

The element is scale-free: the macro split at the barycenter, the
h-scaled P_k basis and the interior DOFs scaled by the squared diameter
make the projection and K_loc of a triangle those of any scaled copy.
So one SfElementClass is built per shape up to a power-of-two scale, and
each mesh level gets a ScaledSfClass of it, which takes every per-shape
array, the load operators and interior moments included, from it; they
equal a fresh build's bit for bit, as scaling by 2^e is exact in
floating point (away from overflow and underflow)."""

from collections import namedtuple
from functools import cache, cached_property

import numpy as np
from scipy.linalg import cho_solve

from .dofmap import DofMap
from .hct import UNIT_TRIANGLE, HctLocalSpace, reference_space
from .mesh import signed_areas
from .pipeline import (ElementClass, Field, Solution, assemble_load,
                       assemble_matrix, build_classes, solve_reduced)
from .polynomials import AffineMonomialBasis
from .quadrature import quad_rule_triangle


_UnitTable = namedtuple("_UnitTable", "interior lagrange points weights mu")


@cache
def _unit_table(k):
    """The read-only arrays on UNIT_TRIANGLE that every SfElementClass of
    degree k shares, built on first use: the interior P_{k-2} basis and
    the lattice's P_k Lagrange basis at reference_space(k)'s quadrature
    points, and the parent-triangle rule of degree 2k + 6 with the
    interior basis at its points (mu).  Both bases are polynomials in the
    affine coordinates of the edges from the first vertex."""
    unit = ElementClass(k, UNIT_TRIANGLE)
    unit.quad_points = reference_space(k).quad_points
    # P_{k-2} in the affine coordinates of the unit triangle's edges from
    # its first vertex, whose edge matrix is I
    interior = AffineMonomialBasis(unit.barycenter, np.eye(2), k - 2)
    points, weights = quad_rule_triangle(2 * k + 6).physical(UNIT_TRIANGLE)
    table = _UnitTable(interior.values(unit.quad_points),
                       unit.lagrange_values, points, weights,
                       interior.values(points))
    for a in table:
        a.flags.writeable = False
    return table


class SfElementClass(ElementClass):
    """Cached per-shape data: HCT space and DOF-to-HCT projection; the
    stiffness Gram is the HCT space's, and there is no stabilizer.

    The interior block of K_loc does not couple to the boundary: the
    boundary columns of the projection are discrete-harmonic extensions
    in the HCT space, so they are energy-orthogonal to the HCT bubbles
    that carry the interior columns, and K_ib = 0 in exact arithmetic
    (to about 1e-15 of max|K_loc| in floating point).  Assembly drops that
    round-off (pipeline.true_entries), so the reduced system is S plus the
    blocks K_ii on its diagonal, and Condensation.decoupled holds."""

    def __init__(self, k, local_verts, space=None):
        """space: the HCT space on local_verts at the default quadrature,
        HctLocalSpace(k, local_verts), mapped from the unit triangle's,
        when not given."""
        super().__init__(k, local_verts)
        self.space = HctLocalSpace(k, self.verts) if space is None else space
        sp_ = self.space
        self.stiffness = sp_.stiffness
        self.quad_points = sp_.quad_points
        self.quad_weights = sp_.quad_weights
        self.basis_values = sp_.quad_values
        self.basis_gradients = sp_.quad_gradients
        self.projection = self._projection_matrix()
        # normalize interior DOFs to unit local energy so the global
        # spectrum is governed by the mesh, not by per-element modes
        nb = self.n_boundary
        Pi = self.projection[:, nb:]
        e = np.sqrt(np.einsum("ia,ij,ja->a", Pi, self.stiffness, Pi))
        self.interior_scale = e
        self.projection[:, nb:] = Pi / e

    @property
    def interior_values(self):
        """(nq, n_interior) the interior P_{k-2} basis at quad_points:
        the unit triangle's, shared by every shape."""
        return _unit_table(self.k).interior

    @property
    def lagrange_values(self):
        """(nq, dim P_k) the lattice's Lagrange basis at quad_points: the
        unit triangle's, shared by every shape."""
        return _unit_table(self.k).lagrange

    def _projection_matrix(self):
        sp_ = self.space
        nb = self.n_boundary
        P = np.zeros((sp_.dim, self.ndof))
        P[:nb, :nb] = np.eye(nb)
        # boundary DOF columns: bubble part solves the homogeneous system
        bub_bnd = cho_solve(sp_.bubble_chol, sp_.s_bub_bnd)
        P[nb:, :nb] = -bub_bnd
        M = sp_.quad_values[:, sp_.bubble_index].T \
            @ (sp_.quad_weights[:, None] * self.interior_values) \
            / self.diameter ** 2
        P[nb:, nb:] = cho_solve(sp_.bubble_chol, M)
        return P

    @cached_property
    def moment_points(self):
        """The parent-triangle rule's points: the unit rule's mapped by
        x = v0 + J x_hat."""
        v0 = self.verts[0]
        return v0 + _unit_table(self.k).points @ (self.verts[1:] - v0)

    @cached_property
    def moments(self):
        """(w mu, mu^T w mu): the interior basis at moment_points weighted
        by the rule's weights |det J| w_hat (det J = 2 mesh.signed_areas,
        which scales exactly with the triangle), and its Gram, which
        interior_dofs solves with."""
        unit = _unit_table(self.k)
        det = 2.0 * signed_areas(self.verts)
        wmu = (abs(det) * unit.weights)[:, None] * unit.mu
        return wmu, unit.mu.T @ wmu

    def interior_dofs(self, g, lap_g, origins):
        """(nE, n_interior) -Delta of I_h g on the copies translated by
        origins: the L2 projection of -Delta(g) onto P_{k-2}, by the
        parent-triangle rule, scaled like the interior columns of
        projection."""
        wmu, gram = self.moments
        mom = -self.sample(lap_g, origins, self.moment_points) @ wmu
        coeffs = np.linalg.solve(gram, mom.T).T
        return coeffs * self.diameter ** 2 * self.interior_scale


class ScaledSfClass(SfElementClass):
    """The class `base` scaled by 2^e, built from base's arrays.  The
    projection, interior scale, basis values, K_loc, its condensation,
    interior_spectrum and R_S are base's; points, weights, R_M,
    gradients, the load operators, the moment points and the interior
    moments are base's times exact powers of two; only the geometry is
    computed at the level's scale."""

    def __init__(self, base, e):
        ElementClass.__init__(self, base.k, np.ldexp(base.verts, e))
        self.base, self.e = base, e
        self.projection = base.projection
        self.interior_scale = base.interior_scale
        self.basis_values = base.basis_values
        self.quad_points = np.ldexp(base.quad_points, e)
        self.quad_weights = np.ldexp(base.quad_weights, 2 * e)

    @cached_property
    def basis_gradients(self):
        return np.ldexp(self.base.basis_gradients, -self.e)

    @cached_property
    def load_matrix(self):
        return np.ldexp(self.base.load_matrix, 2 * self.e)

    @cached_property
    def interp_load(self):
        nodes, matrix = self.base.interp_load
        return np.ldexp(nodes, self.e), np.ldexp(matrix, 2 * self.e)

    @cached_property
    def vem_load_matrix(self):
        return np.ldexp(self.base.vem_load_matrix, 2 * self.e)

    @cached_property
    def moment_points(self):
        return np.ldexp(self.base.moment_points, self.e)

    @cached_property
    def moments(self):
        wmu, gram = self.base.moments
        return np.ldexp(wmu, 2 * self.e), np.ldexp(gram, 2 * self.e)

    @property
    def K_loc(self):
        return self.base.K_loc

    @property
    def condensed(self):
        return self.base.condensed

    @property
    def interior_spectrum(self):
        return self.base.interior_spectrum

    @property
    def error_factors(self):
        R_M, R_S = self.base.error_factors
        return np.ldexp(R_M, self.e), R_S


def sf_class(k, local, cache):
    """The class of the triangle with local vertices `local`: a
    ScaledSfClass of the SfElementClass of local * 2^-e, where 2^e bounds
    the largest |coordinate| (np.frexp), built once and stored in `cache`
    under (k, its edge vectors)."""
    e = int(np.frexp(np.abs(local).max())[1])
    shape = np.ldexp(local, -e)
    key = (k, tuple(shape[1:].ravel()))
    if key not in cache:
        cache[key] = SfElementClass(k, shape)
    return ScaledSfClass(cache[key], e)


def _class_cache_build(mesh, k, cache=None):
    cache = {} if cache is None else cache
    return build_classes(mesh, lambda local: sf_class(k, local, cache))


_GLOBAL_CACHE = {}


def _assemble(mesh, k, classes, f, load_rule="interp", lap_f=None):
    """The DOF map, the skeleton matrix and the global load; see
    pipeline.assemble_load for the load rules."""
    dm = DofMap(mesh, k)
    b = assemble_load(dm, classes, f, load_rule, lap_f)
    return dm, assemble_matrix(dm, classes, skeleton=True), b


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
    dm, S, b = _assemble(mesh, k, classes, problem.f, load_rule,
                         problem.lap_f)
    return solve_reduced(SfSolution, dm, S, b, classes, solver, tol, kappa)
