"""Shared helpers: cached convergence runs, random triangle sampling and
loop-based oracles for the mesh and class-grouping code."""

import functools
from fractions import Fraction

import numpy as np

from hctvem.cli import _p1_fem_stiffness as p1_fem_stiffness  # noqa: F401
from hctvem.experiments import convergence_order
from hctvem.mesh import generate_mesh
from hctvem.problems import get_solution
from hctvem.sf_vem import solve_sf_vem
from hctvem.classic_vem import solve_classic_vem, solve_enriched_vem


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


def _sf_oracle_elements(family, k, level):
    """Per-triangle data of the stabilizer-free method built without the
    translation-class cache, DofMap or SfElementClass: one HctLocalSpace on
    each triangle's physical coordinates, the projections of the unit DOFs
    by project_hct (interior DOFs: -Delta v = one scaled monomial of degree
    k - 2 about the barycenter), and global boundary DOFs matched by node
    coordinates."""
    from hctvem.hct import HctLocalSpace, project_hct
    from hctvem.polynomials import ScaledMonomialBasis, monomial_dim

    mesh = generate_mesh(family, level)
    qdeg = 2 * k + 10
    node_ids = {}
    elements = []
    n_interior = monomial_dim(k - 2)
    for t in range(mesh.num_triangles):
        X = mesh.triangle_coords(t)
        space = HctLocalSpace(k, X, quad_degree=qdeg)
        nb = space.num_boundary
        lap_basis = ScaledMonomialBasis(space.split.barycenter,
                                        space.diameter, k - 2)
        P = np.column_stack(
            [project_hct(space, e).coefficients for e in np.eye(nb)]
            + [project_hct(space, np.zeros(nb), e, lap_basis).coefficients
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

    from hctvem.hct import _lattice_multi_indices, project_hct
    from hctvem.polynomials import monomial_dim, monomial_exponents
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
    lattice = np.array(_lattice_multi_indices(k), dtype=float) / k
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
        return project_hct(space, g(bn[:, 0], bn[:, 1]), lap_c,
                           lap_basis).coefficients

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
