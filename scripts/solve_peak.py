#!/usr/bin/env python3
"""Print the traced memory peak of the projected-gradient solves, in n x k
arrays of doubles.

    python3 scripts/solve_peak.py [--src DIR]

Solves the seed-1 instance sets of the benchmark's kindicators and
projection workloads (perfbench/workloads.py) with kindicators_solve and
solve_projection, each input column-major as penorth.io reads it, under
one BLAS thread. For each problem it prints the largest tracemalloc peak
over its solves, divided by the 8 n k bytes of one n x k array of
doubles. --src imports penorth from another source tree, so two trees can
be compared with the same script:

    python3 scripts/solve_peak.py --src ../parent/src
    python3 scripts/solve_peak.py
"""
from __future__ import annotations

import argparse
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402

# iterates depend on the BLAS thread count; fix it before numpy loads
for _var in run.BLAS_ENV:
    os.environ[_var] = str(run.BLAS_THREADS)

import numpy as np  # noqa: E402

SEED = 1
SOLVES = (("kindicators", "kindicators_solve"),
          ("projection", "solve_projection"))


def traced_peak(solve, M) -> int:
    """tracemalloc's peak, in bytes, while solve(M) runs."""
    tracemalloc.start()
    try:
        solve(M)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source tree to import penorth from "
                         "(default: this checkout's src)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import penorth
    import workloads

    for name, solver in SOLVES:
        instances = workloads.generate(penorth, workloads.WORKLOADS[name], SEED)
        solve = getattr(penorth, solver)
        peak = 0.0
        for inst in instances:
            M = np.asfortranarray(inst.matrix)
            peak = max(peak, traced_peak(solve, M) / M.nbytes)
        n, k = instances[0].matrix.shape
        print(f"{solver} {n} x {k}: {peak:.2f} n x k arrays "
              f"(largest of {len(instances)} seed-{SEED} solves)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
