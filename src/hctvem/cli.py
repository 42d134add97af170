"""Command-line driver: convergence runs to CSV, mesh export, and a quick
self-verification suite."""

import argparse
import dataclasses
import sys

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
    """Run checks.CHECKS and print each failure, or that all passed."""
    from . import checks

    failures = [f for check, inputs in checks.CHECKS for f in check(*inputs)]
    if failures:
        for f in failures:
            print("FAIL:", f, file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="hctvem",
        description="Stabilizer-free virtual elements on triangular meshes")
    sub = ap.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_mesh_parser(sub)
    sub.add_parser("verify", help="run quick structural self-checks")
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
