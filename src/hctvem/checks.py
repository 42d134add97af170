"""The structural checks that `hctvem verify` runs on the inputs in
CHECKS, and the tests on others, with the oracles they share.  Each check
takes its inputs and returns its failure messages, none when it holds; a
check that draws random numbers seeds them from its inputs, so it sees
the same whichever checks ran before it."""

import numpy as np
import scipy.sparse as sp

from . import solvers
from .hct import HctLocalSpace, reference_space
from .mesh import FAMILIES, generate_mesh
from .pipeline import true_entries
from .polynomials import AffineMonomialBasis
from .problems import get_solution
from .sf_vem import SfElementClass, sf_class, solve_sf_vem

SEED = 20240817
TRI = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]])
PROB = get_solution("sinsin")


def polynomial(basis, coeffs):
    """Callables (x, y) -> p and (x, y) -> Delta p for the polynomial p
    with the given coefficients in basis; x and y are arrays of one
    shape, which the values keep."""
    def at(b, c):
        return lambda x, y: (b.values(np.column_stack(
            [np.ravel(x), np.ravel(y)])) @ c).reshape(np.shape(x))
    return at(basis, coeffs), at(basis.lowered(),
                                 basis.laplacian_map().T @ coeffs)


def hct_rule_interior_dofs(ec, lap_g, origins):
    """ec.interior_dofs by the HCT split's quadrature (quad_points,
    quad_weights) in place of the parent-triangle rule."""
    wmu = ec.quad_weights[:, None] * ec.interior_values
    moments = -ec.sample(lap_g, origins, ec.quad_points) @ wmu
    coeffs = np.linalg.solve(ec.interior_values.T @ wmu, moments.T).T
    return coeffs * ec.diameter ** 2 * ec.interior_scale


def p1_fem_stiffness(mesh):
    """Cotangent-formula P1 stiffness with boundary vertices eliminated."""
    n = mesh.num_vertices
    rows, cols, vals = [], [], []
    for tri in mesh.triangles:
        for i in range(3):
            a, b, c = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
            e1 = mesh.vertices[b] - mesh.vertices[a]
            e2 = mesh.vertices[c] - mesh.vertices[a]
            cot = float(e1 @ e2) / abs(e1[0] * e2[1] - e1[1] * e2[0])
            for (r, s, w) in ((b, c, -0.5 * cot), (c, b, -0.5 * cot),
                              (b, b, 0.5 * cot), (c, c, 0.5 * cot)):
                rows.append(r)
                cols.append(s)
                vals.append(w)
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    free = np.where(~mesh.boundary_vertex)[0]
    return A[free][:, free]


def pk_reproduction(k, tri, seed=SEED):
    """The interpolant of a random p of degree k, through the projection,
    is p at the HCT nodes: on tri and on three copies translated within
    [-2, 2]^2, each to 1e-11 of its largest value."""
    rng = np.random.default_rng(seed + k)
    ec = SfElementClass(k, tri)
    basis = ec.space.sub_bases[0]
    p, lap_p = polynomial(basis, rng.normal(size=basis.dim))
    origins = np.vstack([np.zeros((1, 2)), rng.uniform(-2.0, 2.0, (3, 2))])
    got = ec.dof_values(p, lap_p, origins) @ ec.projection.T
    want = p(origins[:, None, 0] + ec.space.nodes[:, 0],
             origins[:, None, 1] + ec.space.nodes[:, 1])
    err = (np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)).max()
    return [f"P_{k} reproduction error {err:.2e}"] if err > 1e-11 else []


def parent_rule_moments(k, tri, seed=SEED):
    """The interior DOFs take -Delta g's moments by one rule of degree
    2k + 6 on the parent triangle, (k + 4)^2 points; for g of degree
    k + 8 it and the HCT split's rule are exact (-Delta g mu has degree
    2k + 4), so they agree to 1e-12 of the largest DOF."""
    if k < 2:
        return []
    rng = np.random.default_rng(seed + k)
    ec = SfElementClass(k, tri)
    failures = []
    if len(ec.moment_points) != (k + 4) ** 2:
        failures.append(f"k={k} parent rule has {len(ec.moment_points)} "
                        f"points, not {(k + 4) ** 2}")
    basis = AffineMonomialBasis(ec.barycenter, ec.diameter * np.eye(2),
                                k + 8)
    g, lap_g = polynomial(basis, rng.normal(size=basis.dim))
    origin = np.zeros((1, 2))
    want = hct_rule_interior_dofs(ec, lap_g, origin)
    diff = np.abs(ec.interior_dofs(g, lap_g, origin) - want).max() \
        / np.abs(want).max()
    if diff > 1e-12:
        failures.append(f"k={k} parent-rule interior DOFs off the HCT "
                        f"rule's by {diff:.2e}")
    return failures


def interior_decoupling(k, tri):
    """K_ib = 0 to 1e-14 of max|K_loc|, and assembly keeps none of it
    (pipeline.true_entries): kappa takes the full system as S plus the
    interior blocks."""
    ec = SfElementClass(k, tri)
    nb, K = ec.n_boundary, ec.K_loc
    coupling = np.abs(K[nb:, :nb]).max(initial=0.0) / np.abs(K).max()
    failures = []
    if coupling > 1e-14:
        failures.append(f"k={k} interior block couples to the boundary: "
                        f"max|K_ib| / max|K| {coupling:.2e}")
    kept = int(true_entries(K)[nb:, :nb].sum())
    if kept:
        failures.append(f"k={k} assembly keeps {kept} entries of K_ib")
    return failures


def mapped_space(k, tri):
    """The space is the unit triangle's mapped onto tri: its arrays and
    K_loc match a build in tri's own coordinates to 1e-10 of the
    largest entry (a shape mismatch is off by inf)."""
    mapped = SfElementClass(k, tri)
    physical = SfElementClass(k, tri, HctLocalSpace(k, tri, physical=True))
    failures = []
    if mapped.space.reference is not reference_space(k):
        failures.append(f"k={k} mapped space not built on the unit "
                        "triangle's")
    pairs = [("HCT " + name, getattr(mapped.space, name),
              getattr(physical.space, name))
             for name in ("stiffness", "quad_values", "quad_gradients",
                          "quad_weights", "quad_points", "nodes")]
    for name, a, b in pairs + [("K_loc", mapped.K_loc, physical.K_loc)]:
        diff = np.abs(a - b).max() / np.abs(b).max() \
            if a.shape == b.shape else np.inf
        if diff > 1e-10:
            failures.append(f"k={k} mapped {name} off the physical "
                            f"build's by {diff:.2e}")
    return failures


def scale_free_class(k, tri, e=-3, seed=SEED):
    """Classes are built once per shape up to a power-of-two scale: the
    one handed out at scale 2^e shares tri's build and its condensation,
    and carries a fresh build's bits in its K_loc, S_loc, interior
    spectrum, load operators, moment points, interior moments and the
    interior DOFs of sinsin on random copies.  tri[0] is the origin."""
    origins = np.random.default_rng(seed + k).uniform(0.0, 1.0, (4, 2))
    cache = {}
    base = sf_class(k, tri, cache).base
    scaled = sf_class(k, np.ldexp(tri, e), cache)
    failures = []
    if scaled.base is not base or scaled.condensed is not base.condensed:
        failures.append(f"k={k} class at scale 2^{e} does not share its "
                        "shape's build")

    def arrays(ec):
        return {"K_loc": ec.K_loc, "S_loc": ec.condensed[2],
                "interior spectrum": np.array(ec.interior_spectrum),
                "load_matrix": ec.load_matrix,
                "interp_load nodes": ec.interp_load[0],
                "interp_load matrix": ec.interp_load[1],
                "vem_load_matrix": ec.vem_load_matrix,
                "moment points": ec.moment_points,
                "moment values": ec.moments[0],
                "moment Gram": ec.moments[1],
                "interior DOFs": ec.dof_values(PROB.u, PROB.lap_u,
                                               origins)[:, ec.n_boundary:]}
    fresh = arrays(SfElementClass(k, np.ldexp(tri, e)))
    for name, a in arrays(scaled).items():
        b = fresh[name]
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            failures.append(f"k={k} {name} at scale 2^{e} differs from a "
                            "fresh build")
    return failures


def condensed_solve(family, level, k):
    """The solve runs on the condensed skeleton; its DOFs solve the full
    reduced system, which dense Cholesky factors, to 1e-10."""
    sol = solve_sf_vem(generate_mesh(family, level), k, PROB)
    try:
        x = solvers.solve_dense_cholesky(sol.matrix, sol.load)
    except solvers.NotSpdError as exc:
        return [f"{family} level-{level} system not SPD: {exc}"]
    err = np.abs(sol.dofs[:sol.dofmap.n_free] - x).max() / np.abs(x).max()
    if err > 1e-10:
        return [f"{family} level-{level} condensed solve off the full "
                f"system's by {err:.2e}"]
    return []


def condensed_kappa(family, level, k):
    """kappa, from S and the interior blocks, is the full system's to
    1e-10."""
    sol = solve_sf_vem(generate_mesh(family, level), k, PROB, kappa=True)
    want = solvers.estimate_condition_2(sol.matrix)
    if abs(sol.kappa - want) > 1e-10 * want:
        return [f"{family} level-{level} kappa {sol.kappa:.6e} off the "
                f"full system's {want:.6e}"]
    return []


def p1_equivalence(family, level):
    """At k = 1 the reduced matrix is the cotangent P1 stiffness to
    1e-12 (a shape mismatch is off by inf)."""
    mesh = generate_mesh(family, level)
    A = solve_sf_vem(mesh, 1, PROB).matrix
    F = p1_fem_stiffness(mesh)
    diff = np.inf if A.shape != F.shape \
        else abs(A - F).max() if A.shape[0] else 0.0
    return [f"P1 equivalence violated by {diff:.2e}"] if diff > 1e-12 \
        else []


# (check, inputs) for every check that `hctvem verify` runs
CHECKS = ([(check, (k, TRI)) for k in range(1, 7)
           for check in (pk_reproduction, parent_rule_moments,
                         interior_decoupling, mapped_space, scale_free_class)]
          + [(check, (family, 2, 2)) for family in FAMILIES
             for check in (condensed_solve, condensed_kappa)]
          + [(p1_equivalence, (family, 3)) for family in FAMILIES])
