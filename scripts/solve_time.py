#!/usr/bin/env python3
"""Print the in-process solve time of each benchmark workload.

    python3 scripts/solve_time.py [--src DIR]

For each workload that BENCHMARK.json names, generates its seed-1
instance set (perfbench/workloads.py), round-trips each input through
penorth.io as the benchmark does (so it is solved column-major), and
solves the set PASSES = 7 times in this one process under one BLAS
thread. It prints the sum over the instances of each instance's fastest
solve: the benchmark's wall_s estimator without the process start-up and
the set-up around it. --src imports penorth from another source tree, so
two trees can be compared with the same script:

    python3 scripts/solve_time.py --src ../parent/src
    python3 scripts/solve_time.py
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402

# iterates depend on the BLAS thread count; fix it before numpy loads
for _var in run.BLAS_ENV:
    os.environ[_var] = str(run.BLAS_THREADS)

import numpy as np  # noqa: E402

SEED = 1
PASSES = 7


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source tree to import penorth from "
                         "(default: this checkout's src)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import penorth
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    for name in names:
        wl = workloads.WORKLOADS[name]
        instances = workloads.generate(penorth, wl, SEED)
        with tempfile.TemporaryDirectory() as tmp:
            run.round_trip(penorth, np, instances, tmp, {})
        best = [float("inf")] * len(instances)
        for _ in range(PASSES):
            for i, inst in enumerate(instances):
                t0 = time.perf_counter()
                wl.solve(penorth, inst)
                best[i] = min(best[i], time.perf_counter() - t0)
        print(f"{name}: {sum(best):.4f} s (sum of each of {len(instances)} "
              f"seed-{SEED} solves' fastest of {PASSES})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
