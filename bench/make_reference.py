"""Write bench/reference.json: the per-level dofs, l2, h1 and kappa of
every workload, from one untraced sample each of the current program.

    python3 bench/make_reference.py

Run it only on a program whose results are known to be right; the
benchmark's correctness gate compares every later run against this file.
"""

import json
import sys

from run import BENCH, spawn
from workloads import WORKLOADS


def main():
    reference = {}
    for name in WORKLOADS:
        record = spawn(name, traced=False, timeout=600)
        if record is None or record["errors"]:
            sys.exit(f"{name}: the sample failed")
        reference[name] = [{k: r[k] for k in ("method", "level", "dofs",
                                              "l2", "h1", "kappa")}
                           for r in record["levels"]]
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
