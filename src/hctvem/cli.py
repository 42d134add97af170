"""Command-line driver: convergence runs to CSV, mesh export, and a quick
self-verification suite."""

import argparse
import dataclasses
import sys

import numpy as np

from .experiments import (ConfigError, ExperimentConfig, config_from_mapping,
                          parse_config_file, run_experiment)
from .mesh import FAMILIES, export_mesh, generate_mesh


def _add_run_parser(sub):
    """One flag per ExperimentConfig field, --name-with-dashes. A flag's
    value stays text, read by the field's parse as a config file's is."""
    p = sub.add_parser("run", help="run a convergence study, write CSV")
    p.add_argument("--config", help="key=value config file")
    for f in dataclasses.fields(ExperimentConfig):
        flag, meta = "--" + f.name.replace("_", "-"), f.metadata
        if f.type is bool:
            p.add_argument(flag, action="store_true", help=meta["help"])
            continue
        choices = meta["choices"]
        if choices is not None:
            choices = [*choices, *meta["aliases"]]
        p.add_argument(flag, choices=choices, help=meta["help"])


def _add_mesh_parser(sub):
    p = sub.add_parser("mesh", help="generate and export a mesh")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--mesh-out", required=True)


def _add_verify_parser(sub):
    sub.add_parser("verify", help="run quick structural self-checks")


def _cmd_run(args):
    """The study of the config file's key=value mapping, overridden by the
    flags given; config_from_mapping reads both."""
    values = parse_config_file(args.config) if args.config else {}
    for f in dataclasses.fields(ExperimentConfig):
        given = getattr(args, f.name)
        if given is None or given is False:
            continue
        values[f.name] = given
    cfg = config_from_mapping(values)
    report = run_experiment(cfg)
    if not cfg.out:
        print("\n".join(report.csv_lines()))
    return 0


def _cmd_mesh(args):
    mesh = generate_mesh(args.family, args.level)
    export_mesh(mesh, args.mesh_out)
    print(f"{args.family} level {args.level}: {mesh.num_vertices} vertices, "
          f"{mesh.num_triangles} triangles -> {args.mesh_out}")
    return 0


def _cmd_verify(args):
    """Quick structural checks: projection polynomial consistency, the
    parent-triangle moment rule against the HCT split's on a polynomial,
    the HCT space mapped from the unit triangle's against one built in the
    triangle's own coordinates, the scale-free class cache (operators bit
    for bit at scale 2^-3), the
    interior block's decoupling (K_ib = 0), SPD assembly, the condensed
    solve and its kappa against the full system, and the lowest-order
    finite element equivalence."""
    from .hct import HctLocalSpace
    from .polynomials import AffineMonomialBasis, monomial_dim
    from .sf_vem import SfElementClass, sf_class, solve_sf_vem
    from .problems import get_solution
    from . import solvers

    rng = np.random.default_rng(20240817)
    prob = get_solution("sinsin")
    failures = []

    for k in range(1, 7):
        tri = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]])
        ec = SfElementClass(k, tri)
        basis = ec.space.sub_bases[0]
        c = rng.normal(size=basis.dim)
        full = basis.values(ec.space.nodes) @ c
        p, lap_p = _polynomial(basis, c)
        rec = ec.dof_values(p, lap_p, np.zeros((1, 2)))[0] \
            @ ec.projection.T
        err = np.abs(rec - full).max() / max(np.abs(full).max(), 1e-30)
        if err > 1e-9:
            failures.append(f"P_{k} reproduction error {err:.2e}")
        # the interior DOFs take -Delta g's moments by one rule of degree
        # 2k + 6 on the parent triangle; for g of degree k + 8 it and the
        # HCT split's rule are exact (-Delta g mu has degree 2k + 4)
        if k >= 2:
            g, lap_g = _polynomial(AffineMonomialBasis(
                ec.barycenter, ec.diameter * np.eye(2), k + 8),
                rng.normal(size=monomial_dim(k + 8)))
            origin = np.zeros((1, 2))
            want = _hct_rule_interior_dofs(ec, lap_g, origin)
            diff = np.abs(ec.interior_dofs(g, lap_g, origin) - want).max() \
                / np.abs(want).max()
            if diff > 1e-12:
                failures.append(f"k={k} parent-rule interior DOFs off the "
                                f"HCT rule's by {diff:.2e}")
        # kappa takes the full system as S plus the interior blocks
        nb, K = ec.n_boundary, ec.K_loc
        coupling = np.abs(K[nb:, :nb]).max(initial=0.0) / np.abs(K).max()
        if coupling > 1e-14:
            failures.append(f"k={k} interior block couples to the "
                            f"boundary: max|K_ib| / max|K| {coupling:.2e}")
        # the space is the unit triangle's mapped onto tri: its stiffness
        # and K_loc must match a build in tri's own coordinates
        physical = SfElementClass(k, tri,
                                  HctLocalSpace(k, tri, physical=True))
        for name, a, b in (
                ("HCT stiffness", ec.stiffness, physical.stiffness),
                ("K_loc", ec.K_loc, physical.K_loc)):
            diff = np.abs(a - b).max() / np.abs(b).max()
            if diff > 1e-10:
                failures.append(f"k={k} mapped {name} off the physical "
                                f"build's by {diff:.2e}")
        # classes are built once per shape up to a power-of-two scale: one
        # handed out at scale 2^-3 must carry a fresh build's bits in its
        # K_loc, condensed S_loc, load operators, moment points and
        # interior moments
        cache = {}
        sf_class(k, tri, cache)
        small = np.ldexp(tri, -3)
        scaled, fresh = sf_class(k, small, cache), SfElementClass(k, small)
        for name, a, b in (
                ("K_loc", scaled.K_loc, fresh.K_loc),
                ("S_loc", scaled.condensed[2], fresh.condensed[2]),
                ("load_matrix", scaled.load_matrix, fresh.load_matrix),
                ("interp_load nodes", scaled.interp_load[0],
                 fresh.interp_load[0]),
                ("interp_load matrix", scaled.interp_load[1],
                 fresh.interp_load[1]),
                ("vem_load_matrix", scaled.vem_load_matrix,
                 fresh.vem_load_matrix),
                ("moment points", scaled.moment_points,
                 fresh.moment_points),
                ("moment values", scaled.moments[0], fresh.moments[0]),
                ("moment Gram", scaled.moments[1], fresh.moments[1])):
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                failures.append(f"k={k} {name} at scale 2^-3 differs from "
                                "a fresh build")

    for fam, gen in FAMILIES.items():
        # the solve runs on the condensed skeleton; its DOFs must solve
        # the full reduced system, and its kappa, from S and the interior
        # blocks, must be the full system's
        sol = solve_sf_vem(gen(2), 2, prob, kappa=True)
        try:
            x = solvers.solve_dense_cholesky(sol.matrix, sol.load)
        except solvers.NotSpdError as exc:
            failures.append(f"{fam} level-2 system not SPD: {exc}")
            continue
        err = np.abs(sol.dofs[:sol.dofmap.n_free] - x).max() \
            / np.abs(x).max()
        if err > 1e-10:
            failures.append(f"{fam} level-2 condensed solve off the full "
                            f"system's by {err:.2e}")
        want = solvers.estimate_condition_2(sol.matrix)
        if abs(sol.kappa - want) > 1e-10 * want:
            failures.append(f"{fam} level-2 kappa {sol.kappa:.6e} off the "
                            f"full system's {want:.6e}")

    for gen in FAMILIES.values():
        mesh = gen(3)
        A = solve_sf_vem(mesh, 1, prob).matrix
        F = _p1_fem_stiffness(mesh)
        diff = abs(A - F).max()
        if diff > 1e-12:
            failures.append(f"P1 equivalence violated by {diff:.2e}")

    if failures:
        for f in failures:
            print("FAIL:", f, file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _polynomial(basis, coeffs):
    """Callables (x, y) -> p and (x, y) -> Delta p for the polynomial p
    with the given coefficients in basis; x and y are arrays of one
    shape, which the values keep."""
    def at(b, c):
        return lambda x, y: (b.values(np.column_stack(
            [np.ravel(x), np.ravel(y)])) @ c).reshape(np.shape(x))
    return at(basis, coeffs), at(basis.lowered(),
                                 basis.laplacian_map().T @ coeffs)


def _hct_rule_interior_dofs(ec, lap_g, origins):
    """ec.interior_dofs by the HCT split's quadrature (quad_points,
    quad_weights) in place of the parent-triangle rule."""
    wmu = ec.quad_weights[:, None] * ec.interior_values
    moments = -ec.sample(lap_g, origins, ec.quad_points) @ wmu
    coeffs = np.linalg.solve(ec.interior_values.T @ wmu, moments.T).T
    return coeffs * ec.diameter ** 2 * ec.interior_scale


def _p1_fem_stiffness(mesh):
    """Cotangent-formula P1 stiffness with boundary vertices eliminated."""
    import scipy.sparse as sp

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


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="hctvem",
        description="Stabilizer-free virtual elements on triangular meshes")
    sub = ap.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_mesh_parser(sub)
    _add_verify_parser(sub)
    args = ap.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "mesh":
            return _cmd_mesh(args)
        return _cmd_verify(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
