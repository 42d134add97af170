"""Benchmark workloads: fixed convergence studies, each a list of
`hctvem.experiments.ExperimentConfig` keyword sets run one after another.

Each workload makes a different layer dominate; README.md gives the
measured shares and BENCHMARK.json the one-line reasons.  The problem
data are fixed, so there is nothing to draw from a seed: the same
workload always gives the same inputs.
"""

WORKLOADS = {
    # the SuperLU factor dominates: solver and ordering changes show here
    "sf3-direct": [
        dict(method="sf-hct", k=3, mesh="irregular8", levels=(6, 6),
             solver="direct"),
    ],
    # per-triangle Python work (mesh, class grouping, norms), cheap solves
    "p1-uniform-sweep": [
        dict(method="sf-hct", k=1, mesh="uniform", levels=(2, 9),
             solver="direct"),
    ],
    # Jacobi-CG, the kappa estimate and the costliest (k=6) class builds;
    # never reaches solve_spd's direct path
    "sf6-cg-kappa": [
        dict(method="sf-hct", k=6, mesh="irregular8", levels=(1, 4),
             solver="cg", kappa=True),
    ],
    # the only workload that reaches classic_vem
    "baselines": [
        dict(method="classic", k=3, mesh="irregular8", levels=(2, 6),
             dof_mode="l2_normalized_x10", alpha=-1.0, kappa=True),
        dict(method="enriched", k=2, mesh="irregular8", levels=(3, 6),
             harmonic_degrees=(3,)),
    ],
}


def planned_levels(name):
    """[(method, level)] in the order the workload runs them."""
    return [(cfg["method"], level)
            for cfg in WORKLOADS[name]
            for level in range(cfg["levels"][0], cfg["levels"][1] + 1)]
