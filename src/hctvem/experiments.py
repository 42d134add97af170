"""Convergence-study driver: runs a method over a range of mesh levels and
writes one CSV row per level with errors, computed orders and, on
request, a condition-number estimate."""

import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import solvers
from .mesh import MAX_LEVEL, generate_mesh, is_integer
from .pipeline import LOAD_RULES
from .problems import SOLUTIONS, get_solution
from .quadrature import MAX_DEGREE
from .sf_vem import solve_sf_vem
from .classic_vem import solve_classic_vem, solve_enriched_vem, DOF_MODES

CSV_HEADER = "level,dofs,l2,l2_order,h1,h1_order,kappa,seconds"

METHODS = ("sf-hct", "classic", "enriched")
FAMILIES = ("uniform", "irregular8")
# short spellings of DOF_MODES, accepted wherever a dof mode is read
_DOF_MODE_ALIAS = {"l2": "l2_normalized", "l2x10": "l2_normalized_x10"}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    method: str = "sf-hct"
    k: int = 1
    mesh: str = "uniform"
    levels: tuple = (1, 4)
    solution: str = "sinsin"
    alpha: float = 0.0
    dof_mode: str = "standard"
    harmonic_degrees: tuple = ()
    kappa: bool = False
    solver: str = "direct"
    tol: float = 1e-12
    load_rule: str = "interp"
    out: str = None
    dump_matrix: str = None

    def validate(self):
        for what, value, choices in (
                ("method", self.method, METHODS),
                ("mesh family", self.mesh, FAMILIES),
                ("dof mode", self.dof_mode, DOF_MODES),
                ("solution", self.solution, SOLUTIONS),
                ("load rule", self.load_rule, LOAD_RULES),
                ("solver", self.solver, solvers.SOLVERS)):
            if value not in choices:
                raise ConfigError(f"unknown {what} {value!r}; "
                                  f"choose from {choices}")
        # unpacking a malformed value raises ValueError or TypeError
        try:
            lo, hi = self.levels
        except (TypeError, ValueError):
            raise ConfigError("levels are a pair (first, last), got "
                              f"{self.levels!r}") from None
        try:
            degrees = tuple(self.harmonic_degrees)
        except TypeError:
            raise ConfigError("harmonic degrees are a sequence, got "
                              f"{self.harmonic_degrees!r}") from None
        for value in (self.k, lo, hi, *degrees):
            if not is_integer(value):
                raise ConfigError("k, the levels and the harmonic degrees "
                                  f"are integers, got {value!r}")
        if not 1 <= self.k <= 6:
            raise ConfigError(f"k must be in 1..6, got {self.k}")
        if self.method == "classic" and self.k > 4:
            raise ConfigError("classic baseline supports k in 1..4")
        if not 1 <= lo <= hi <= MAX_LEVEL:
            raise ConfigError(f"bad level range {self.levels!r}; levels "
                              f"are 1..{MAX_LEVEL}")
        if self.method == "enriched":
            if not degrees:
                raise ConfigError("enriched method needs harmonic degrees")
            if min(degrees) <= self.k:
                raise ConfigError(
                    f"harmonic degrees must exceed k={self.k}, "
                    f"got {degrees}")
            # a degree-m harmonic needs a volume rule of degree 2m
            if 2 * max(degrees) > MAX_DEGREE:
                raise ConfigError(
                    f"harmonic degrees above {MAX_DEGREE // 2} are not "
                    "supported by the quadrature")
        if degrees and self.method != "enriched":
            raise ConfigError("harmonic degrees are for the enriched method")
        if self.method != "classic" and (self.alpha != 0.0
                                         or self.dof_mode != "standard"):
            raise ConfigError("alpha and dof mode are for the classic method")
        # nan compares false: a plain tol <= 0 test would let it through
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ConfigError("tol must be positive and finite, "
                              f"got {self.tol!r}")
        if not np.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha!r}")
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
    """Flat key=value file; blank lines and # comments ignored."""
    values = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def config_from_mapping(values):
    cfg = ExperimentConfig()
    names = {f.name for f in fields(ExperimentConfig)}
    for key, raw in values.items():
        if key not in names:
            raise ConfigError(f"unknown config key {key!r}")
        if key in ("k",):
            setattr(cfg, key, int(raw))
        elif key in ("alpha", "tol"):
            setattr(cfg, key, float(raw))
        elif key == "kappa":
            setattr(cfg, key, parse_flag(key, raw))
        elif key == "levels":
            setattr(cfg, key, parse_level_range(raw))
        elif key == "harmonic_degrees":
            setattr(cfg, key, parse_degree_list(raw))
        elif key == "dof_mode":
            setattr(cfg, key, _DOF_MODE_ALIAS.get(raw, raw))
        else:
            setattr(cfg, key, raw)
    return cfg


def parse_flag(key, raw):
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad {key} value {raw!r}; expected true or false")


def parse_level_range(text):
    text = str(text).strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
    else:
        lo = hi = text
    try:
        return (int(lo), int(hi))
    except ValueError:
        raise ConfigError(f"bad level range {text!r}; expected a..b") \
            from None


def parse_degree_list(text):
    if not str(text).strip():
        return ()
    try:
        return tuple(int(t) for t in str(text).split(","))
    except ValueError:
        raise ConfigError(f"bad degree list {text!r}") from None


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
    common = dict(solver=cfg.solver, tol=cfg.tol, load_rule=cfg.load_rule,
                  kappa=cfg.kappa)
    if cfg.method == "sf-hct":
        return solve_sf_vem(mesh, cfg.k, problem, **common)
    if cfg.method == "classic":
        return solve_classic_vem(mesh, cfg.k, problem,
                                 dof_mode=cfg.dof_mode, alpha=cfg.alpha,
                                 **common)
    return solve_enriched_vem(mesh, cfg.k, problem,
                              harmonic_degrees=cfg.harmonic_degrees,
                              **common)


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
