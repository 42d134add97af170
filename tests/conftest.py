"""Shared helpers: cached convergence runs, reduced systems built through
the pipeline, random triangle sampling, the per-element oracle of the
stabilizer-free method with its HCT evaluation and energy projection, the
quadrature-point oracle of the error norms, the every-step Lanczos rule,
and loop-based oracles for the mesh and class-grouping code."""

import functools
from fractions import Fraction

import numpy as np
from scipy.linalg import cho_solve, eigvalsh_tridiagonal

from hctvem import pipeline
from hctvem.cli import _p1_fem_stiffness as p1_fem_stiffness  # noqa: F401
from hctvem.cli import _polynomial as polynomial  # noqa: F401
from hctvem.classic_vem import (ClassicElementClass, EnrichedElementClass,
                                solve_classic_vem, solve_enriched_vem)
from hctvem.dofmap import DofMap
from hctvem.experiments import convergence_order
from hctvem.mesh import generate_mesh
from hctvem.polynomials import AffineMonomialBasis
from hctvem.problems import get_solution
from hctvem.sf_vem import SfElementClass, solve_sf_vem
from hctvem.solvers import ConvergenceError


@functools.lru_cache(maxsize=None)
def sf_errors(family, k, lo, hi, load_rule="interp"):
    """[(l2, h1)] for the stabilizer-free method over a level range."""
    prob = get_solution("sinsin")
    out = []
    for lev in range(lo, hi + 1):
        mesh = generate_mesh(family, lev)
        sol = solve_sf_vem(mesh, k, prob, load_rule=load_rule)
        out.append(sol.solution_field().error_norms(
            sol.reference_field(prob)))
    return out


@functools.lru_cache(maxsize=None)
def classic_errors(family, k, lo, hi, dof_mode="standard", alpha=0.0):
    prob = get_solution("sinsin")
    out = []
    for lev in range(lo, hi + 1):
        mesh = generate_mesh(family, lev)
        sol = solve_classic_vem(mesh, k, prob, dof_mode=dof_mode,
                                alpha=alpha)
        out.append(sol.solution_field().error_norms(
            sol.reference_field(prob)))
    return out


@functools.lru_cache(maxsize=None)
def enriched_errors(family, k, degrees, lo, hi):
    prob = get_solution("sinsin")
    out = []
    for lev in range(lo, hi + 1):
        mesh = generate_mesh(family, lev)
        sol = solve_enriched_vem(mesh, k, prob, harmonic_degrees=degrees)
        out.append(sol.solution_field().error_norms(
            sol.reference_field(prob)))
    return out


# element-class factories by method; classic and enriched as the
# benchmark runs them
FACTORIES = {
    "sf-hct": lambda k: lambda lv: SfElementClass(k, lv),
    "classic": lambda k: lambda lv: ClassicElementClass(
        k, lv, "l2_normalized_x10", -1.0),
    "enriched": lambda k: lambda lv: EnrichedElementClass(k, lv, (k + 1,)),
}
CLASS_CACHE = {}


def reduced_system(method, family, k, level, f=get_solution("sinsin").f):
    """(A, b, dm, classes): the matrix (CSC) and load on the free DOFs of
    one method at one mesh level, with its DofMap and element classes,
    built through pipeline as the solve_* functions build them; f=None
    assembles a zero load."""
    mesh = generate_mesh(family, level)
    classes = pipeline.build_classes(mesh, FACTORIES[method](k),
                                     CLASS_CACHE, (method, k))
    dm = DofMap(mesh, k)
    A, b = pipeline.assemble(dm, classes, f)
    return (*pipeline.reduce_dirichlet(dm, A, b), dm, classes)


def eval_basis(space, points):
    """Values of all nodal basis functions of the HctLocalSpace at the
    points, (npts, dim); each point is evaluated in the sub-triangle where
    its smallest barycentric coordinate is largest (ties are harmless: the
    basis is continuous across internal edges)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    where = np.full(len(points), -1)
    best_min = np.full(len(points), -np.inf)
    for s, sub in enumerate(space.split.sub_triangles):
        T = np.column_stack([sub[1] - sub[0], sub[2] - sub[0]])
        lam = np.linalg.solve(T, (points - sub[0]).T).T
        bary = np.column_stack([1 - lam.sum(axis=1), lam])
        m = bary.min(axis=1)
        upd = m > best_min
        where[upd] = s
        best_min[upd] = m[upd]
    out = np.zeros((len(points), space.dim))
    for s in range(3):
        sel = where == s
        if not sel.any():
            continue
        vals = space.sub_bases[s].values(points[sel]) @ space.sub_coeffs[s]
        out[np.ix_(sel, space.sub_l2g[s])] = vals
    return out


def project_hct(space, boundary_values, laplacian_coeffs=None,
                laplacian_basis=None):
    """HCT coefficients of the energy projection of the virtual function
    with the given boundary node values and interior -Delta expansion (a
    P_{k-2} field, its coefficients in laplacian_basis): the bubble part
    solves the bubble block of the stiffness against the boundary part and
    the -Delta moments."""
    boundary_values = np.asarray(boundary_values, dtype=float)
    rhs = -space.s_bub_bnd @ boundary_values
    if laplacian_coeffs is not None and len(laplacian_coeffs):
        vals = laplacian_basis.values(space.quad_points) \
            @ np.asarray(laplacian_coeffs)
        rhs = rhs + space.quad_values[:, space.bubble_index].T \
            @ (space.quad_weights * vals)
    c = np.zeros(space.dim)
    c[:space.num_boundary] = boundary_values
    c[space.num_boundary:] = cho_solve(space.bubble_chol, rhs)
    return c


def _sf_oracle_elements(family, k, level):
    """Per-triangle data of the stabilizer-free method built without the
    translation-class cache, DofMap or SfElementClass: one HctLocalSpace on
    each triangle's physical coordinates, the projections of the unit DOFs
    by project_hct (interior DOFs: -Delta v = one scaled monomial of degree
    k - 2 about the barycenter), and global boundary DOFs matched by node
    coordinates."""
    from hctvem.hct import HctLocalSpace
    from hctvem.polynomials import monomial_dim

    mesh = generate_mesh(family, level)
    qdeg = 2 * k + 10
    node_ids = {}
    elements = []
    n_interior = monomial_dim(k - 2)
    for t in range(mesh.num_triangles):
        X = mesh.vertices[mesh.triangles[t]]
        space = HctLocalSpace(k, X, quad_degree=qdeg)
        nb = space.num_boundary
        diameter = np.linalg.norm(X[[1, 2, 0]] - X, axis=1).max()
        lap_basis = AffineMonomialBasis(space.split.barycenter,
                                        diameter * np.eye(2), k - 2)
        P = np.column_stack(
            [project_hct(space, e) for e in np.eye(nb)]
            + [project_hct(space, np.zeros(nb), e, lap_basis)
               for e in np.eye(n_interior)])
        keys = map(tuple, np.round(space.nodes[:nb], 10))
        bnd = [node_ids.setdefault(key, len(node_ids)) for key in keys]
        elements.append((space, lap_basis, P, bnd))
    assert len(node_ids) == mesh.num_vertices + (k - 1) * mesh.num_edges
    return elements, node_ids


def sf_oracle_errors(family, k, level, load_rule="interp"):
    """(l2, h1) of Pi u_h - Pi I_h u for u = sin(pi x) sin(pi y),
    recomputed element by element as an independent oracle for
    solve_sf_vem: the load is (I_k f, Pi phi_i) with I_k the P_k Lagrange
    interpolant on the parent triangle ("interp"), (f, Pi phi_i)
    ("exact") or (Pi I_h f, Pi phi_i) ("vem"); the virtual interpolant
    I_h g takes g at the boundary nodes and the -Delta g moments from a
    quadrature on the unsplit parent triangle; every integral uses degree
    2k + 10."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from hctvem.polynomials import (lattice_multi_indices, monomial_dim,
                                    monomial_exponents)
    from hctvem.quadrature import quad_rule_triangle

    prob = get_solution("sinsin")
    elements, node_ids = _sf_oracle_elements(family, k, level)
    n_bnd = len(node_ids)
    n_int = monomial_dim(k - 2)
    ndof = n_bnd + n_int * len(elements)
    gdofs = [np.concatenate([bnd, n_bnd + n_int * t + np.arange(n_int)])
             for t, (_, _, _, bnd) in enumerate(elements)]
    # P_k Lagrange basis on the parent triangle in barycentric monomials
    exps = monomial_exponents(k)
    lattice = np.array(lattice_multi_indices(k), dtype=float) / k
    vandermonde = (lattice[:, 1:2] ** exps[:, 0]
                   * lattice[:, 2:3] ** exps[:, 1])
    rule = quad_rule_triangle(2 * k + 10)

    def virtual_interpolant(space, lap_basis, g, lap_g):
        """HCT coefficients of Pi I_h g."""
        bn = space.nodes[:space.num_boundary]
        lap_c = None
        if n_int:
            pts, wp = rule.physical(space.coords)
            M = lap_basis.values(pts)
            lap_c = np.linalg.solve(
                M.T @ (wp[:, None] * M),
                M.T @ (wp * -lap_g(pts[:, 0], pts[:, 1])))
        return project_hct(space, g(bn[:, 0], bn[:, 1]), lap_c, lap_basis)

    rows, cols, vals = [], [], []
    b = np.zeros(ndof)
    for (space, lap_basis, P, _), gd in zip(elements, gdofs):
        X = space.coords
        K = P.T @ space.stiffness @ P
        rows.append(np.repeat(gd, len(gd)))
        cols.append(np.tile(gd, len(gd)))
        vals.append(K.ravel())
        qp, w = space.quad_points, space.quad_weights
        if load_rule == "interp":
            lam = np.linalg.solve(np.column_stack([X[1] - X[0], X[2] - X[0]]),
                                  (qp - X[0]).T).T
            lag = (lam[:, 0:1] ** exps[:, 0] * lam[:, 1:2] ** exps[:, 1]) \
                @ np.linalg.inv(vandermonde)
            nodes = lattice @ X
            fq = lag @ prob.f(nodes[:, 0], nodes[:, 1])
        elif load_rule == "vem":
            fq = space.quad_values @ virtual_interpolant(
                space, lap_basis, prob.f, prob.lap_f)
        else:
            fq = prob.f(qp[:, 0], qp[:, 1])
        b[gd] += P.T @ (space.quad_values.T @ (w * fq))
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ndof, ndof)).tocsr()
    fixed = np.zeros(ndof, dtype=bool)
    for key, i in node_ids.items():
        fixed[i] = min(key) < 1e-9 or max(key) > 1 - 1e-9
    free = np.flatnonzero(~fixed)
    x = np.zeros(ndof)
    x[free] = spla.spsolve(A[free][:, free].tocsc(), b[free])

    l2 = h1 = 0.0
    for (space, lap_basis, P, _), gd in zip(elements, gdofs):
        ref = virtual_interpolant(space, lap_basis, prob.u, prob.lap_u)
        d = P @ x[gd] - ref
        w = space.quad_weights
        l2 += w @ (space.quad_values @ d) ** 2
        h1 += w @ (np.einsum("qid,i->qd", space.quad_gradients, d) ** 2
                   ).sum(axis=1)
    return np.sqrt(l2), np.sqrt(h1)


def quadrature_error_norms(field, other):
    """(l2, h1) of Pi_h (field - other) summed at the quadrature points,
    in np.longdouble: each element's DOF difference is mapped to its
    projection coefficients, evaluated with its gradient at every volume
    quadrature point of its class, squared and weighted there."""
    ld = np.longdouble
    l2 = h1 = ld(0)
    for (ec, _, da), (_, _, db) in zip(field.parts, other.parts,
                                       strict=True):
        coeffs = (da.astype(ld) - db.astype(ld)) @ ec.projection.T.astype(ld)
        w = ec.quad_weights.astype(ld)
        l2 += np.sum(w * (coeffs @ ec.basis_values.T.astype(ld)) ** 2)
        for axis in range(2):
            grad = coeffs @ ec.basis_gradients[:, :, axis].T.astype(ld)
            h1 += np.sum(w * grad ** 2)
    return float(np.sqrt(l2)), float(np.sqrt(h1))


def lanczos_every_step(apply, n, max_iter=None, tol=1e-10):
    """solvers._lanczos_extreme as it was before its Ritz values were
    checked on a schedule: they are computed at every step, and the value
    has settled from the 11th step on once it moved by at most tol
    relative since step m - m // 4.  Returns (value, steps)."""
    if max_iter is None:
        max_iter = max(200, int(10 * np.sqrt(n)))
    q = np.ones(n) / np.sqrt(n)
    alphas, betas, ests = [], [], []
    q_prev = np.zeros(n)
    beta = 0.0
    steps = min(max_iter, n)
    for m in range(1, steps + 1):
        w = apply(q) - beta * q_prev
        alpha = float(q @ w)
        w -= alpha * q
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        d, e = np.array(alphas), np.array(betas)
        lo, hi = (eigvalsh_tridiagonal(d, e, select="i",
                                       select_range=(i, i))[0]
                  for i in (0, m - 1))
        est = float(hi if hi >= -lo else lo)
        ests.append(est)
        settled = m > 10 and abs(est - ests[-1 - m // 4]) <= tol * abs(est)
        if settled or beta == 0.0:
            return est, m
        betas.append(beta)
        q_prev, q = q, w / beta
    if steps == n:
        return est, n
    raise ConvergenceError("not settled", max_iter)


def orders(errs):
    """[(l2_order, h1_order)] between consecutive rows of sf_errors."""
    return [(convergence_order(a[0], b[0]), convergence_order(a[1], b[1]))
            for a, b in zip(errs, errs[1:])]


def random_ccw_triangle(rng, min_area=0.05):
    """Random nondegenerate CCW triangle with vertices in [-1, 1]^2."""
    while True:
        tri = rng.uniform(-1.0, 1.0, (3, 2))
        d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
        a = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
        if abs(a) > min_area:
            return tri[[0, 2, 1]] if a < 0 else tri


def topology_oracle(vertices, triangles):
    """The array fields and h_max of a TriangleMesh by a per-triangle dict
    walk: edges are numbered in order of first appearance over (triangle,
    local edge 01, 12, 20), edge_tris holds the first and the second
    triangle seen."""
    edge_index = {}
    tri_edges = np.empty((len(triangles), 3), dtype=np.int64)
    edge_list = []
    edge_tris = []
    for t, (a, b, c) in enumerate(triangles):
        for j, (p, q) in enumerate(((a, b), (b, c), (c, a))):
            key = (p, q) if p < q else (q, p)
            e = edge_index.get(key)
            if e is None:
                e = len(edge_list)
                edge_index[key] = e
                edge_list.append(key)
                edge_tris.append([t, -1])
            else:
                assert edge_tris[e][1] == -1
                edge_tris[e][1] = t
            tri_edges[t, j] = e
    edges = np.array(edge_list, dtype=np.int64)
    edge_tris = np.array(edge_tris, dtype=np.int64)
    boundary_edge = edge_tris[:, 1] == -1
    boundary_vertex = np.zeros(len(vertices), dtype=bool)
    boundary_vertex[edges[boundary_edge].ravel()] = True
    lengths = np.linalg.norm(
        vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1)
    return dict(vertices=vertices, triangles=triangles, edges=edges,
                edge_tris=edge_tris, tri_edges=tri_edges,
                boundary_vertex=boundary_vertex, boundary_edge=boundary_edge,
                h_max=float(lengths.max()))


def uniform_mesh_oracle(level):
    """(vertices, triangles) of the uniform family by an i/j double loop."""
    n = 2 ** (level - 1)
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    triangles = []
    for j in range(n):
        for i in range(n):
            triangles.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            triangles.append((vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return vertices, np.array(triangles, dtype=np.int64)


_F = Fraction
_IRR8_ORACLE_VERTICES = [
    (_F(0), _F(0)), (_F(1, 2), _F(0)), (_F(1), _F(0)),
    (_F(0), _F(1, 2)), (_F(3, 4), _F(1, 2)), (_F(1), _F(1, 2)),
    (_F(0), _F(1)), (_F(1, 2), _F(1)), (_F(1), _F(1)),
]
_IRR8_ORACLE_TRIANGLES = [
    (0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4),
    (5, 8, 4), (4, 8, 7), (4, 7, 6), (3, 4, 6),
]


def irregular8_mesh_oracle(level):
    """(vertices, triangles) of the irregular8 family by tiling the base
    pattern in exact rationals, vertices numbered in order of first
    appearance."""
    n = 2 ** (level - 1)
    scale = _F(1, n)
    vid = {}
    vertices = []
    triangles = []
    for ty in range(n):
        for tx in range(n):
            local_ids = []
            for (x, y) in _IRR8_ORACLE_VERTICES:
                p = ((tx + x) * scale, (ty + y) * scale)
                i = vid.get(p)
                if i is None:
                    i = len(vertices)
                    vid[p] = i
                    vertices.append(p)
                local_ids.append(i)
            for (a, b, c) in _IRR8_ORACLE_TRIANGLES:
                triangles.append(
                    (local_ids[a], local_ids[b], local_ids[c]))
    vertices = np.array([[float(x), float(y)] for x, y in vertices])
    return vertices, np.array(triangles, dtype=np.int64)


def group_elements_oracle(mesh, ndigits=12):
    """Translation classes of group_elements by a per-triangle dict walk."""
    v = mesh.vertices[mesh.triangles]
    rel = v[:, 1:, :] - v[:, :1, :]
    keys = np.round(rel.reshape(len(v), 4), ndigits)
    groups = {}
    for t, key in enumerate(map(tuple, keys)):
        groups.setdefault(key, []).append(t)
    return {key: np.array(idx) for key, idx in groups.items()}


def dirichlet_oracle(mesh, k):
    """DofMap.dirichlet by a walk over the boundary vertices and edges."""
    n_edge = k - 1
    V, E, T = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    flags = np.zeros(V + E * n_edge + T * k * (k - 1) // 2, dtype=bool)
    flags[:V] = mesh.boundary_vertex
    for e in np.flatnonzero(mesh.boundary_edge):
        flags[V + e * n_edge:V + (e + 1) * n_edge] = True
    return flags
