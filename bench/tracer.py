"""Per-layer tracing from outside the program.

`Tracer.install()` replaces module attributes of `hctvem` with timing
wrappers, in the calling process only; no source file changes.  Every
wrapped name is looked up through its module (or class) at call time by
the code that calls it, so the wrapper sees every call.

Each call is a span.  A span's self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of all
spans add up to the `run_experiment` span.  Spans and counts are kept per
(study, level) bucket, the one current when the span starts: a study is
one `run_experiment` call, and a level starts at its `generate_mesh`
call, so the study's own span lands in its "study/None" bucket.
"""

import importlib
import time

# entry point -> layer timing it belongs to.  Names are attribute paths
# below the `hctvem` package; the last part is the attribute replaced.
# The kappa estimate counts in the solvers layer, and the Dirichlet
# reduction in assemble.s, as classic_vem._assemble_and_solve does its own
# reduction; PARTS below keeps both apart as well.
ENTRY_POINTS = {
    "experiments.run_experiment": "experiments.self_s",
    "experiments.generate_mesh": "mesh.generate_s",
    "sf_vem._class_cache_build": "classes.build_s",
    "classic_vem._build_classes": "classes.build_s",
    "sf_vem.DofMap": "dofmap.build_s",
    "classic_vem.DofMap": "dofmap.build_s",
    "sf_vem._assemble": "assemble.s",
    "classic_vem._assemble_and_solve": "assemble.s",
    "experiments.solve_sf_vem": "assemble.s",
    "solvers.solve_spd": "solve.s",
    "solvers.solve_cg": "solve.s",
    "solvers.spla.splu": "solve.s",
    "solvers.estimate_condition_2": "solve.s",
    "sf_vem.SfSolution.reference_field": "errors.reference_s",
    "classic_vem.ClassicSolution.reference_field": "errors.reference_s",
    "sf_vem.SfField.error_norms": "errors.norms_s",
    "classic_vem.PolyField.error_norms": "errors.norms_s",
}

LAYER_TIMES = sorted(set(ENTRY_POINTS.values()))

# entry point -> the part of its layer timing it is also reported as
PARTS = {
    "solvers.estimate_condition_2": "kappa.s",
    "experiments.solve_sf_vem": "reduce.s",
}

# counts a layer reports, read from the arguments or result of one call
COUNTERS = {
    "experiments.generate_mesh":
        lambda args, res: {"mesh.triangles": res.num_triangles},
    "sf_vem._class_cache_build": lambda args, res: {"classes.count": len(res)},
    "classic_vem._build_classes":
        lambda args, res: {"classes.count": len(res)},
    "sf_vem.DofMap": lambda args, res: {"dofmap.dofs": res.total},
    "classic_vem.DofMap": lambda args, res: {"dofmap.dofs": res.total},
    # the reduced system every method hands to the solver
    "solvers.solve_spd": lambda args, res: {"assemble.nnz": args[0].nnz},
    "solvers.solve_cg": lambda args, res: {"solve.cg_iters": res[1]},
    "solvers.spla.splu": lambda args, res: {
        "solve.factor_nnz": res.L.nnz + res.U.nnz,
        "solve.matrix_nnz": args[0].nnz},
}


def _resolve(path):
    """'sf_vem.SfField.error_norms' -> (SfField class, 'error_norms')."""
    *owner_path, attr = path.split(".")
    owner = importlib.import_module("hctvem." + owner_path[0])
    for name in owner_path[1:]:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.buckets = {}      # "study/level" -> {"self_s", "calls", "counts"}
        self._stack = []       # child-time accumulators of open spans
        self._study = -1
        self._level = None

    @classmethod
    def install(cls):
        tracer = cls()
        for path in ENTRY_POINTS:
            owner, attr = _resolve(path)
            original = getattr(owner, attr)
            setattr(owner, attr, tracer._wrap(path, original))
        return tracer

    def _bucket(self):
        key = f"{self._study}/{self._level}"
        if key not in self.buckets:
            self.buckets[key] = {"self_s": {}, "calls": {}, "counts": {}}
        return self.buckets[key]

    def _wrap(self, path, original):
        counter = COUNTERS.get(path)

        def traced(*args, **kwargs):
            if path == "experiments.run_experiment":
                self._study += 1
                self._level = None
            elif path == "experiments.generate_mesh":
                self._level = args[1]
            bucket = self._bucket()
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                bucket["calls"][path] = bucket["calls"].get(path, 0) + 1
                bucket["self_s"][path] = (bucket["self_s"].get(path, 0.0)
                                          + duration - children[0])
            if counter is not None:
                start = time.perf_counter()
                for name, value in counter(args, result).items():
                    bucket["counts"][name] = (bucket["counts"].get(name, 0)
                                              + int(value))
                # bookkeeping (the L and U copies for the fill) is not the
                # caller's work: keep it out of the caller's self time
                if self._stack:
                    self._stack[-1][0] += time.perf_counter() - start
            return result

        traced.__wrapped__ = original
        return traced


def layer_metrics(buckets):
    """Per-layer metrics summed over the given trace buckets."""
    out = {name: 0.0 for name in LAYER_TIMES + list(PARTS.values())}
    counts = {}
    for bucket in buckets:
        for path, seconds in bucket["self_s"].items():
            out[ENTRY_POINTS[path]] += seconds
            if path in PARTS:
                out[PARTS[path]] += seconds
        for name, value in bucket["counts"].items():
            counts[name] = counts.get(name, 0) + value
    for name in ("mesh.triangles", "classes.count", "dofmap.dofs",
                 "assemble.nnz", "solve.cg_iters"):
        out[name] = counts.get(name, 0)
    matrix_nnz = counts.get("solve.matrix_nnz", 0)
    out["solve.fill"] = (counts.get("solve.factor_nnz", 0) / matrix_nnz
                         if matrix_nnz else 0.0)
    return out


def entry_calls(buckets):
    """Calls per entry point summed over the given trace buckets."""
    calls = {path: 0 for path in ENTRY_POINTS}
    for bucket in buckets:
        for path, n in bucket["calls"].items():
            calls[path] += n
    return calls
