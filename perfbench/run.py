#!/usr/bin/env python3
"""Benchmark of the reflectmimo trace -> fit -> MIMO-rate pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cap_fitted --seed 1 --seconds 15 --trace 0

Workloads: cap_fitted, cap_exhaustive, displacement, fit_rich (see
perfbench/README.md). The package is imported from ./src of the checkout;
nothing is installed. The last line of standard output is the result, one
JSON object with the keys correct, attempted, failed and metrics; the line
before it is the run record. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of the traced run.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are fixed for this process (and the set-up's child
# interpreters) before numpy is imported; 1 is within any machine's nproc.
BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cap_fitted", "cap_exhaustive", "displacement", "fit_rich")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "reflectmimo" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'reflectmimo'}", file=sys.stderr)
        return 2
    # One CPU for the whole run, so the speed probe and the units it scales
    # (and the set-up's child interpreters) always share a core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import reflectmimo

    if Path(reflectmimo.__file__).resolve().parent != src / "reflectmimo":
        print(f"error: imported reflectmimo from {reflectmimo.__file__}", file=sys.stderr)
        return 2

    import harness

    record, result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run_record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
