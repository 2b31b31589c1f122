#!/usr/bin/env python3
"""Write one point of the benchmark trajectory: results/BENCH_<commit>.json.

Runs perfbench/run.py once untraced and once traced for every workload of
BENCHMARK.json plus onmf-direct, at one seed and the run_seconds of
BENCHMARK.json, and collects their reports:
environment, end-to-end metrics, per-solve outcomes, per-layer metrics and
the layers ranked by their share of traced solve time (self time / wall).

    python3 perfbench/record.py --seed 1
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXTRA_WORKLOADS = ("onmf-direct",)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    out = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for name in names:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   name, "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            code = subprocess.run(cmd, cwd=ROOT).returncode
            path = os.path.join(ROOT, ".perfbench_out",
                                f"{name}-seed{args.seed}-trace{trace}.json")
            with open(path) as fh:
                rep = json.load(fh)
            out["env"] = rep.pop("env")
            rep["exit_code"] = code
            entry["end_to_end" if trace == 0 else "per_layer"] = rep
        entry["in_benchmark_json"] = name not in EXTRA_WORKLOADS
        out["workloads"][name] = entry
    commit = out["env"]["commit"][:12]
    path = os.path.join(HERE, "results", f"BENCH_{commit}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
