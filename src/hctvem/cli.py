"""Command-line driver: convergence runs to CSV, mesh export, and a quick
self-verification suite."""

import argparse
import dataclasses
import sys

import numpy as np

from .experiments import (FAMILIES, METHODS, ConfigError, ExperimentConfig,
                          config_from_mapping, parse_config_file,
                          run_experiment)
from .pipeline import LOAD_RULES
from .solvers import SOLVERS

_DOF_MODE_ALIAS = {"standard": "standard", "l2": "l2_normalized",
                   "l2x10": "l2_normalized_x10"}


def _add_run_parser(sub):
    p = sub.add_parser("run", help="run a convergence study, write CSV")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--k", type=int)
    p.add_argument("--mesh", choices=FAMILIES)
    p.add_argument("--levels", help="level range a..b")
    p.add_argument("--solution")
    p.add_argument("--alpha", type=float,
                   help="stabilizer exponent (classic method)")
    p.add_argument("--dof-mode", choices=sorted(_DOF_MODE_ALIAS))
    p.add_argument("--harmonic-degrees",
                   help="comma-separated degrees (enriched method)")
    p.add_argument("--kappa", action="store_true",
                   help="estimate the 2-norm condition number per level")
    p.add_argument("--tol", type=float)
    p.add_argument("--load-rule", choices=LOAD_RULES)
    p.add_argument("--solver", choices=SOLVERS)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--dump-matrix",
                   help="Matrix-Market export path prefix per level")


def _add_mesh_parser(sub):
    p = sub.add_parser("mesh", help="generate and export a mesh")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--mesh-out", required=True)


def _add_verify_parser(sub):
    sub.add_parser("verify", help="run quick structural self-checks")


def _config_from_args(args):
    """The config file's key=value mapping, overridden by the flags that
    were given, typed and checked once by config_from_mapping."""
    values = parse_config_file(args.config) if args.config else {}
    for f in dataclasses.fields(ExperimentConfig):
        given = getattr(args, f.name)
        if given is None or given is False:
            continue
        values[f.name] = _DOF_MODE_ALIAS[given] if f.name == "dof_mode" \
            else given
    return config_from_mapping(values)


def _cmd_run(args):
    cfg = _config_from_args(args)
    report = run_experiment(cfg)
    if not cfg.out:
        print("\n".join(report.csv_lines()))
    return 0


def _cmd_mesh(args):
    from .mesh import generate_mesh, export_mesh
    mesh = generate_mesh(args.family, args.level)
    export_mesh(mesh, args.mesh_out)
    print(f"{args.family} level {args.level}: {mesh.num_vertices} vertices, "
          f"{mesh.num_triangles} triangles -> {args.mesh_out}")
    return 0


def _cmd_verify(args):
    """Quick structural checks: projection polynomial consistency, SPD
    assembly, and the lowest-order finite element equivalence."""
    from .mesh import gen_uniform_mesh, gen_irregular8_mesh
    from .sf_vem import SfElementClass, solve_sf_vem
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

    for fam, gen in (("uniform", gen_uniform_mesh),
                     ("irregular8", gen_irregular8_mesh)):
        sol = solve_sf_vem(gen(2), 2, prob)
        try:
            solvers.solve_dense_cholesky(sol.matrix, sol.load)
        except solvers.NotSpdError as exc:
            failures.append(f"{fam} level-2 system not SPD: {exc}")

    for gen in (gen_uniform_mesh, gen_irregular8_mesh):
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
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
