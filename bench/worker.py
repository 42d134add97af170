"""One benchmark sample in a fresh interpreter.

    python3 bench/worker.py WORKLOAD T0 TRACE

imports `hctvem` from the checkout's `src`, runs the workload's studies
through `hctvem.experiments.run_experiment` and prints one JSON record on
stdout.  T0 is the caller's `time.time()` taken just before it started
this process, so `setup_s` covers interpreter start-up and
`import hctvem`.  TRACE=1 installs the layer tracer first.

A fresh process per sample keeps the module-level element-class caches
cold, as they are for every CLI run.
"""

import sys
import time

if __name__ == "__main__":
    from pathlib import Path

    ROOT = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(ROOT / "src"))
    import hctvem
    setup_s = time.time() - float(sys.argv[2])

import json
import platform
import resource
import traceback


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_sample(workload, trace):
    """Run one workload in this process; return the record without
    setup_s."""
    from hctvem import classic_vem, experiments, sf_vem
    from tracer import Tracer
    from workloads import WORKLOADS

    if (sf_vem._GLOBAL_CACHE or classic_vem._CLASSIC_CACHE
            or classic_vem._ENRICHED_CACHE):
        raise RuntimeError("element-class caches are not cold")
    configs = [experiments.ExperimentConfig(**c)
               for c in WORKLOADS[workload]]
    tracer = Tracer.install() if trace else None
    levels, errors = [], []
    start = time.perf_counter()
    for cfg in configs:
        try:
            report = experiments.run_experiment(cfg)
        except Exception:  # a failed study is counted, not fatal
            errors.append(traceback.format_exc())
            continue
        levels += [{"method": cfg.method, "level": r.level, "dofs": r.dofs,
                    "l2": r.l2, "h1": r.h1, "kappa": r.kappa}
                   for r in report.rows]
    wall_s = time.perf_counter() - start
    return {"wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "levels": levels, "errors": errors,
            "trace": tracer.buckets if tracer else None,
            "environment": _environment()}


if __name__ == "__main__":
    if Path(hctvem.__file__).resolve().parent != ROOT / "src" / "hctvem":
        sys.exit(f"imported hctvem from {hctvem.__file__}, not the checkout")
    record = run_sample(sys.argv[1], sys.argv[3] == "1")
    record["setup_s"] = setup_s
    print(json.dumps(record))
