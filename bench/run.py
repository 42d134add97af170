"""hctvem benchmark: end-to-end metrics of one workload, or its per-layer
metrics with --trace 1.

    python3 bench/run.py --workload sf3-direct --seed 1 --seconds 20 --trace 0

Runs the workload's convergence studies again and again, each time in a
fresh interpreter (bench/worker.py), until --seconds have been measured,
and reports medians.  Every level of every sample is checked against
bench/reference.json; a level that raised, went missing or left the
tolerance counts as failed.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines above it
give every metric with its unit, sample count and quartiles, the
fail_frac, the per-level breakdown (traced runs) and the environment.
The exit code is 1 when any level failed, 2 when the run could not start.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import (ENTRY_POINTS, LAYER_TIMES, PARTS,  # noqa: E402
                    entry_calls, layer_metrics)
from workloads import WORKLOADS, planned_levels  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics of the final JSON line.  Its times are nonzero on
# every workload and add up to the traced wall time, less the tracer's
# own bookkeeping: solve.s holds the kappa estimate and assemble.s the
# Dirichlet reduction.  The traced run prints kappa.s and reduce.s, those
# two parts, above the line.
PER_LAYER = {
    "mesh.generate_s": "s", "mesh.triangles": "count",
    "classes.build_s": "s", "classes.count": "count",
    "dofmap.build_s": "s", "dofmap.dofs": "count",
    "assemble.s": "s", "assemble.nnz": "count",
    "solve.s": "s", "solve.fill": "ratio", "solve.cg_iters": "count",
    "errors.reference_s": "s", "errors.norms_s": "s",
    "experiments.self_s": "s",
    "trace.wall_s": "s",
}

# Correctness gate, per level: |got - ref| <= RTOL |ref| + ATOL for l2 and
# h1, and RTOL_KAPPA relative for kappa.  See README.md for the reasons.
RTOL, ATOL = 1e-6, 1e-12
RTOL_KAPPA = 1e-5

BLAS_THREADS = "1"
HARD_LIMIT_S = 170.0   # a run must be over within 180 s
MIN_SAMPLES = 3


def level_ok(got, ref):
    if got["dofs"] != ref["dofs"]:
        return False
    for key in ("l2", "h1"):
        if not abs(got[key] - ref[key]) <= RTOL * abs(ref[key]) + ATOL:
            return False
    if ref["kappa"] is None or got["kappa"] is None:
        return ref["kappa"] is got["kappa"]
    return abs(got["kappa"] - ref["kappa"]) <= RTOL_KAPPA * ref["kappa"]


def failed_levels(workload, levels, reference, exact=None):
    """Planned levels of one sample that fail the gate; with `exact`,
    also those whose l2/h1/kappa differ at all from that sample's."""
    got = {(r["method"], r["level"]): r for r in levels}
    exact = {} if exact is None else {
        (r["method"], r["level"]): r for r in exact}
    ref = {(r["method"], r["level"]): r for r in reference}
    bad = []
    for key in planned_levels(workload):
        r = got.get(key)
        same = key not in exact or r is not None and all(
            r[q] == exact[key][q] for q in ("l2", "h1", "kappa"))
        if r is None or not level_ok(r, ref[key]) or not same:
            bad.append(key)
    return bad


def spawn(workload, traced, timeout):
    """One sample in a fresh interpreter; None when it crashed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(BENCH / "worker.py"), workload,
           repr(time.time()), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"sample exited with {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    record = json.loads(lines[-1])
    for err in record["errors"]:
        print(err, file=sys.stderr)
    return record


def collect(workload, seconds, trace):
    """Samples until `seconds` are used up; traced runs alternate traced
    and untraced samples so the tracing overhead is measured alike."""
    samples, durations = [], []
    start = time.monotonic()
    while True:
        traced = trace and len(samples) % 2 == 0
        timeout = HARD_LIMIT_S - (time.monotonic() - start)
        t = time.monotonic()
        record = spawn(workload, traced, timeout)
        durations.append(time.monotonic() - t)
        samples.append((traced, record))
        if record is None:
            break
        elapsed = time.monotonic() - start
        next_end = elapsed + statistics.median(durations)
        enough = len(samples) >= (2 * MIN_SAMPLES if trace else MIN_SAMPLES)
        if trace and len(samples) % 2:
            enough = False
        if (enough and next_end > seconds) or next_end > HARD_LIMIT_S:
            break
    return samples


def summary(values):
    """(median, q1, q3, n)."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def git_commit():
    # the ceiling keeps git from reporting a repository the checkout sits in
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(samples):
    env = {"nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS,
           "platform": platform.platform(),
           "git_commit": git_commit(),
           "command": [Path(sys.executable).name] + sys.argv}
    for _, record in samples:
        if record is not None:
            env.update(record["environment"])
            break
    return env


def layer_table(traced):
    """Median of each layer metric per trace bucket, and for the whole
    run, over the traced samples."""
    keys = sorted({k for r in traced for k in r["trace"]},
                  key=lambda k: [int(p) if p.isdigit() else -1
                                 for p in k.split("/")])
    rows = {}
    for key in keys:
        per_sample = [layer_metrics([r["trace"][key]])
                      for r in traced if key in r["trace"]]
        rows[key] = {m: statistics.median(s[m] for s in per_sample)
                     for m in per_sample[0]}
    totals = [layer_metrics(r["trace"].values()) for r in traced]
    rows["total"] = {m: statistics.median(t[m] for t in totals)
                     for m in totals[0]}
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="recorded only: every workload's inputs are fixed")
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hctvem" / "__init__.py").is_file():
        print(f"no hctvem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())
    reference = reference[args.workload]

    samples = collect(args.workload, args.seconds, bool(args.trace))
    plain = [r for traced, r in samples if not traced and r is not None]
    traced = [r for t, r in samples if t and r is not None]

    n_levels = len(planned_levels(args.workload))
    attempted = n_levels * len(samples)
    failed = 0
    for is_traced, record in samples:
        if record is None:
            failed += n_levels
            continue
        exact = plain[0]["levels"] if is_traced and plain else None
        bad = failed_levels(args.workload, record["levels"], reference,
                            exact)
        for method, level in bad:
            print(f"FAILED {method} level {level}", file=sys.stderr)
        failed += len(bad)

    env = environment(samples)
    print(f"workload {args.workload}: seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, "
          f"{len(plain)} untraced + {len(traced)} traced samples")
    print("environment " + json.dumps(env))
    metrics = {}
    if plain:
        for name, unit in END_TO_END.items():
            med, q1, q3, n = summary(r[name] for r in plain)
            print(f"  {name:<20} {med:12.6g} {unit:<6} median of {n} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g})")
            if not args.trace:
                metrics[name] = {"value": med, "unit": unit}
    print(f"  {'fail_frac':<20} {failed / attempted:12.6g} {'frac':<6} "
          f"{failed} of {attempted} levels failed")
    if args.trace and traced and plain:
        table = layer_table(traced)
        total = table["total"]
        total["trace.wall_s"] = statistics.median(r["wall_s"]
                                                  for r in traced)
        names = LAYER_TIMES + [m for m in total if m not in LAYER_TIMES]
        labels = {part: f"{part} (in {ENTRY_POINTS[path]})"
                  for path, part in PARTS.items()}
        print("per layer, median of the traced samples, "
              "by study/level bucket:")
        print(f"  {'':<26}" + "".join(f"{key:>12}" for key in table))
        for name in names:
            print(f"  {labels.get(name, name):<26}" + "".join(
                f"{row[name]:12.5g}" if name in row else f"{'':>12}"
                for row in table.values()))
        calls = entry_calls(b for r in traced for b in r["trace"].values())
        print("entry-point calls (all traced samples): "
              + json.dumps(calls))
        overhead = total["trace.wall_s"] - statistics.median(
            r["wall_s"] for r in plain)
        print(f"tracing overhead: {overhead:.4g} s "
              "(traced minus untraced median wall_s)")
        metrics = {name: {"value": total[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
