"""Virtual element methods for the 2D Poisson problem on triangular meshes.

Three element families are provided:

* a stabilizer-free method whose elliptic projection lands in a macro-triangle
  piecewise-polynomial space (``sf_vem``),
* a classical stabilized virtual element baseline (``classic_vem``), and
* a stabilizer-free harmonically enriched polynomial baseline
  (``classic_vem.solve_enriched_vem``).
"""

from .mesh import TriangleMesh, generate_mesh, export_mesh
from .problems import ManufacturedSolution, get_solution
from .sf_vem import SfElementClass, solve_sf_vem
from .classic_vem import DOF_MODES, solve_classic_vem, solve_enriched_vem
from .solvers import (solve_dense_cholesky, solve_spd, solve_cg,
                      estimate_condition_2, export_matrix_market, NotSpdError)
from .experiments import (ExperimentConfig, ErrorReport, run_experiment,
                          convergence_order)

__all__ = [
    "TriangleMesh", "generate_mesh", "export_mesh",
    "ManufacturedSolution", "get_solution",
    "SfElementClass", "solve_sf_vem",
    "DOF_MODES", "solve_classic_vem", "solve_enriched_vem",
    "solve_dense_cholesky", "solve_spd", "solve_cg",
    "estimate_condition_2", "export_matrix_market", "NotSpdError",
    "ExperimentConfig", "ErrorReport", "run_experiment",
    "convergence_order",
]

__version__ = "0.1.0"
