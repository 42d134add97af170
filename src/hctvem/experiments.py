"""Convergence-study driver: runs a method over a range of mesh levels and
writes one CSV row per level with errors, computed orders and, on
request, a condition-number estimate."""

import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import solvers
from .mesh import FAMILIES, MAX_LEVEL, generate_mesh, is_integer
from .pipeline import LOAD_RULES, check_settings
from .problems import SOLUTIONS, get_solution
from .sf_vem import solve_sf_vem
from .classic_vem import DOF_MODES, solve_classic_vem, solve_enriched_vem

CSV_HEADER = "level,dofs,l2,l2_order,h1,h1_order,kappa,seconds"

METHODS = ("sf-hct", "classic", "enriched")


class ConfigError(ValueError):
    pass


def parse_flag(text):
    text = str(text).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError("expected true or false")


def parse_level_range(text):
    lo, dots, hi = str(text).strip().partition("..")
    try:
        return (int(lo), int(hi if dots else lo))
    except ValueError:
        raise ConfigError("expected a level range a..b") from None


def parse_degree_list(text):
    if not str(text).strip():
        return ()
    try:
        return tuple(int(t) for t in str(text).split(","))
    except ValueError:
        raise ConfigError("expected comma-separated integers") from None


def _setting(default, help, parse=str, choices=None, aliases=None,
             methods=METHODS):
    return field(default=default, metadata=dict(
        parse=parse, choices=choices, aliases=aliases or {},
        methods=methods, help=help))


def _is_a(kind, value):
    """value fits the field type kind: a number may be numpy's but not a
    bool, a str may be an os.PathLike, a tuple any sequence of integers."""
    if kind is tuple:
        try:
            return all(map(is_integer, value))
        except TypeError:
            return False
    if isinstance(value, (bool, np.bool_)):
        return kind is bool
    return isinstance(value, {int: numbers.Integral, float: numbers.Real,
                              str: (str, os.PathLike)}.get(kind, kind))


@dataclass
class ExperimentConfig:
    """One convergence study: a method of degree k on a range of levels of
    a mesh family, with its solver and outputs.

    The fields are the one list of run settings: config_from_mapping, the
    `run` flags, validate and the level solve read them. Besides its type,
    each field declares in its metadata its `parse` (text -> value, for a
    config file and a flag, after its `aliases`, other spellings of a
    choice, are mapped), its `choices` if any, its `help` text and the
    `methods` whose solve takes it (none for the settings the study reads
    itself). Under any other method a setting keeps its default."""

    method: str = _setting("sf-hct", "element method", choices=METHODS,
                           methods=())
    k: int = _setting(1, "polynomial degree", int)
    mesh: str = _setting("uniform", "mesh family", choices=FAMILIES,
                         methods=())
    levels: tuple = _setting((1, 4), "level range a..b", parse_level_range,
                             methods=())
    solution: str = _setting("sinsin", "manufactured solution",
                             choices=SOLUTIONS, methods=())
    alpha: float = _setting(0.0, "stabilizer exponent (classic method)",
                            float, methods=("classic",))
    dof_mode: str = _setting(
        "standard", "DOF scaling (classic method)", choices=DOF_MODES,
        aliases={"l2": "l2_normalized", "l2x10": "l2_normalized_x10"},
        methods=("classic",))
    harmonic_degrees: tuple = _setting(
        (), "comma-separated degrees (enriched method)", parse_degree_list,
        methods=("enriched",))
    kappa: bool = _setting(
        False, "estimate the 2-norm condition number per level", parse_flag)
    solver: str = _setting("direct", "linear solver", choices=solvers.SOLVERS)
    tol: float = _setting(1e-12, "CG relative residual tolerance", float)
    load_rule: str = _setting("interp", "load vector rule",
                              choices=LOAD_RULES)
    out: str = _setting(None, "CSV output path (default: stdout)",
                        methods=())
    dump_matrix: str = _setting(
        None, "Matrix-Market export path prefix per level", methods=())

    def validate(self):
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if value is None and f.default is None:
                continue
            if not _is_a(f.type, value):
                raise ConfigError(f"{f.name} must be of type "
                                  f"{f.type.__name__}, got {value!r}")
            if meta["choices"] is not None and value not in meta["choices"]:
                raise ConfigError(f"unknown {f.name} {value!r}; choose "
                                  f"from {tuple(meta['choices'])}")
            owners = meta["methods"]
            if owners and self.method not in owners \
                    and f.type(value) != f.default:
                raise ConfigError(f"{f.name} is for the "
                                  f"{' and '.join(owners)} method")
        levels = tuple(self.levels)
        if len(levels) != 2 or not 1 <= levels[0] <= levels[1] <= MAX_LEVEL:
            raise ConfigError(f"levels are a pair a <= b in 1..{MAX_LEVEL}, "
                              f"got {self.levels!r}")
        try:
            check_settings(self.method, self.k, self.harmonic_degrees,
                           self.tol, self.alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # checked before any level runs, not after the last one
        for what, path in (("out", self.out),
                           ("dump_matrix", self.dump_matrix)):
            if not path:
                continue
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigError(f"{what} {path!r}: no such directory")
            # out would fail to open, and the prefix DIR/ would name the
            # hidden files DIR/.levelN.mtx
            if not os.path.basename(path) or os.path.isdir(path):
                raise ConfigError(f"{what} {path!r} names a directory, "
                                  "not a file")
        return self


def parse_config_file(path):
    """Flat key=value file: # comments and blank lines ignored, no key
    twice (an appended line would quietly override one above it)."""
    values, lines = {}, {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in lines:
                raise ConfigError(f"{path}:{ln}: {key} already set on line "
                                  f"{lines[key]}")
            values[key], lines[key] = val.strip(), ln
    return values


def config_from_mapping(values):
    """An ExperimentConfig from {field name: text}; each text is read by
    its field's parse (a `run` flag that is set comes as True)."""
    settings = {f.name: f.metadata for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig()
    for key, raw in values.items():
        if key not in settings:
            raise ConfigError(f"unknown config key {key!r}")
        meta, text = settings[key], str(raw)
        try:
            setattr(cfg, key, meta["parse"](meta["aliases"].get(text, text)))
        except ValueError as exc:
            raise ConfigError(f"bad {key} value {raw!r}: {exc}") from None
    return cfg


def convergence_order(e_coarse, e_fine):
    """Order from one halving of h."""
    if e_coarse <= 0 or e_fine <= 0:
        raise ValueError("convergence order needs positive errors")
    return float(np.log2(e_coarse / e_fine))


@dataclass
class LevelResult:
    level: int
    dofs: int
    l2: float
    h1: float
    kappa: float = None


def _row_orders(prev, row):
    """(l2_order, h1_order) of row against the level before it. A level
    with no free DOFs has only a round-off error, so the row after it
    gets no order, like the first row."""
    if prev is None or prev.dofs == 0:
        return 0.0, 0.0
    return (convergence_order(prev.l2, row.l2),
            convergence_order(prev.h1, row.h1))


@dataclass
class ErrorReport:
    config: ExperimentConfig
    rows: list = field(default_factory=list)

    def csv_lines(self):
        lines = [CSV_HEADER]
        prev = None
        for r in self.rows:
            lo, ho = _row_orders(prev, r)
            kap = "" if r.kappa is None else f"{r.kappa:.4e}"
            # the seconds field stays empty: wall time varies run to run,
            # and the same configuration must always write the same bytes
            lines.append(
                f"{r.level},{r.dofs},{r.l2:.6e},{lo:.2f},"
                f"{r.h1:.6e},{ho:.2f},{kap},")
            prev = r
        return lines

    def orders(self):
        """[(l2_order, h1_order)] between consecutive levels."""
        return [_row_orders(a, b) for a, b in zip(self.rows, self.rows[1:])]


def _solve_level(cfg, mesh, problem):
    # built per call: the solve functions are read from this module when
    # the level runs, so a wrapper set on it sees the call
    solve = {"sf-hct": solve_sf_vem, "classic": solve_classic_vem,
             "enriched": solve_enriched_vem}[cfg.method]
    return solve(mesh, problem=problem, **{
        f.name: getattr(cfg, f.name) for f in fields(cfg)
        if cfg.method in f.metadata["methods"]})


def run_experiment(cfg):
    cfg.validate()
    problem = get_solution(cfg.solution)
    report = ErrorReport(cfg)
    lo, hi = cfg.levels
    for level in range(lo, hi + 1):
        mesh = generate_mesh(cfg.mesh, level)
        sol = _solve_level(cfg, mesh, problem)
        l2, h1 = sol.solution_field().error_norms(
            sol.reference_field(problem))
        if cfg.dump_matrix:
            solvers.export_matrix_market(
                sol.matrix, f"{cfg.dump_matrix}.level{level}")
        report.rows.append(LevelResult(
            level=level, dofs=sol.dofmap.n_free, l2=l2, h1=h1,
            kappa=sol.kappa))
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write("\n".join(report.csv_lines()) + "\n")
    return report
