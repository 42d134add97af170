"""Convergence-study driver: runs a method over a range of mesh levels and
writes one CSV row per level with errors, computed orders and, on
request, a condition-number estimate."""

import time
from dataclasses import dataclass, field

import numpy as np

from .mesh import generate_mesh
from .problems import get_solution
from .quadrature import MAX_DEGREE
from .sf_vem import solve_sf_vem
from .classic_vem import solve_classic_vem, solve_enriched_vem, DOF_MODES

CSV_HEADER = "level,dofs,l2,l2_order,h1,h1_order,kappa,seconds"

METHODS = ("sf-hct", "classic", "enriched")
FAMILIES = ("uniform", "irregular8")


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
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; "
                              f"choose from {METHODS}")
        if self.mesh not in FAMILIES:
            raise ConfigError(f"unknown mesh family {self.mesh!r}; "
                              f"choose from {FAMILIES}")
        if not 1 <= self.k <= 6:
            raise ConfigError(f"k must be in 1..6, got {self.k}")
        if self.method == "classic" and self.k > 4:
            raise ConfigError("classic baseline supports k in 1..4")
        lo, hi = self.levels
        if not (isinstance(lo, int) and isinstance(hi, int) and
                1 <= lo <= hi):
            raise ConfigError(f"bad level range {self.levels!r}")
        if self.dof_mode not in DOF_MODES:
            raise ConfigError(f"unknown dof mode {self.dof_mode!r}")
        if self.method == "enriched":
            if not self.harmonic_degrees:
                raise ConfigError("enriched method needs harmonic degrees")
            if min(self.harmonic_degrees) <= self.k:
                raise ConfigError(
                    f"harmonic degrees must exceed k={self.k}, "
                    f"got {tuple(self.harmonic_degrees)}")
            # a degree-m harmonic needs a volume rule of degree 2m
            if 2 * max(self.harmonic_degrees) > MAX_DEGREE:
                raise ConfigError(
                    f"harmonic degrees above {MAX_DEGREE // 2} are not "
                    "supported by the quadrature")
        if self.load_rule == "vem" and self.method != "sf-hct":
            raise ConfigError('load rule "vem" is for the sf-hct method')
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
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
    for key, raw in values.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown config key {key!r}")
        if key in ("k",):
            setattr(cfg, key, int(raw))
        elif key in ("alpha", "tol"):
            setattr(cfg, key, float(raw))
        elif key == "kappa":
            setattr(cfg, key, str(raw).lower() in ("1", "true", "yes", "on"))
        elif key == "levels":
            setattr(cfg, key, parse_level_range(raw))
        elif key == "harmonic_degrees":
            setattr(cfg, key, parse_degree_list(raw))
        else:
            setattr(cfg, key, raw)
    return cfg


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
    seconds: float = 0.0


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
            # the seconds field stays empty: wall time varies run to run
            # (it is kept in LevelResult.seconds), and the same
            # configuration must always write the same bytes
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
                  return_system=True)
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
    from . import solvers
    cfg.validate()
    problem = get_solution(cfg.solution)
    report = ErrorReport(cfg)
    lo, hi = cfg.levels
    for level in range(lo, hi + 1):
        t0 = time.perf_counter()
        mesh = generate_mesh(cfg.mesh, level)
        sol, A, _ = _solve_level(cfg, mesh, problem)
        l2, h1 = sol.solution_field().error_norms(
            sol.reference_field(problem))
        kappa = solvers.estimate_condition_2(A) if cfg.kappa else None
        if cfg.dump_matrix:
            solvers.export_matrix_market(
                A, f"{cfg.dump_matrix}.level{level}")
        report.rows.append(LevelResult(
            level=level, dofs=A.shape[0], l2=l2, h1=h1, kappa=kappa,
            seconds=time.perf_counter() - t0))
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write("\n".join(report.csv_lines()) + "\n")
    return report
