#!/usr/bin/env python3
"""Print a hash of every solve's outputs, one line per instance.

Generates the instance sets of the four benchmark workloads
(perfbench/workloads.py) for seeds 1 and 2, round-trips each input through
penorth.io with the benchmark's own round trip (perfbench/run.py), solves
it with one BLAS thread, and hashes what the solve returned: final,
objective, zeta, kkt_residual, feasibility, the outer and inner counts,
termination, flags, history and extra (everything but the timing). A
change meant to leave iterates bit-identical must print the same lines
before and after; compare two runs with diff:

    python3 scripts/bit_identity.py > after.txt
    python3 scripts/bit_identity.py --src ../parent/src > before.txt
    diff before.txt after.txt

Each line ends with a short hash per field, so a diff shows which output
moved. --tiny solves the benchmark's smoke-test instance sets instead.

--summary prints, instead of the hashes, what a change that moves values
by rounding should still keep: per instance the termination reason, the
outer and inner counts, a hash of final's row support (each row's argmax
column and the final > 0 pattern), a hash of the partition of the rows it
induces (the argmax labels, -1 for a row with no positive entry, renamed
by first occurrence, so a support that only permutes columns keeps it),
and the objective and feasibility to 17 significant digits. A diff of two
--summary runs shows which counts, supports and partitions held where the
hashes moved.

--kindicators-grid solves, instead of the benchmark's sets, 84
K-indicators instances off the benchmark: gen_kindicators(n, k, noise,
seed) for n x k in KINDICATORS_SIZES, noise 0.1 to 0.7 and seeds 0 to 2,
straight from the generator. Its lines also hash the labels, last (with
--summary too, as labels=), and the total solve time goes to stderr, so
the K-indicators give-up rule (driver.py) can be checked for exactness
and speed against another tree; a tree without the rule takes about a
minute. A change that moves only inner counts shows in the --summary diff
as lines whose inner= alone moved.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import struct
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

SEEDS = (1, 2)
WORKLOADS = ("onmf-gn", "onmf-direct", "projection", "kindicators")
FIELDS = ("final", "objective", "zeta", "kkt_residual", "feasibility",
          "outer_iterations", "inner_iterations", "termination", "flags",
          "history", "extra")
KINDICATORS_SIZES = ((1000, 10), (2000, 20), (3000, 30), (5000, 40))
KINDICATORS_NOISES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
KINDICATORS_SEEDS = (0, 1, 2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tiny", action="store_true",
                    help="solve the smoke-test instance sets")
    ap.add_argument("--kindicators-grid", action="store_true",
                    help="solve the 84-instance K-indicators grid")
    ap.add_argument("--summary", action="store_true",
                    help="print counts, support hashes and values instead "
                         "of output hashes")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source tree to import penorth from "
                         "(default: this checkout's src)")
    return ap.parse_args(argv)


def encode(obj, out: list) -> None:
    """Append an unambiguous byte encoding of obj (exact float bits)."""
    if isinstance(obj, dict):
        out.append(b"{%d" % len(obj))
        for key in sorted(obj):
            encode(str(key), out)
            encode(obj[key], out)
    elif isinstance(obj, (list, tuple)):
        out.append(b"[%d" % len(obj))
        for item in obj:
            encode(item, out)
    elif isinstance(obj, np.ndarray):
        out.append(f"a{obj.dtype.str}{obj.shape}".encode())
        out.append(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        out.append(b"b1" if obj else b"b0")
    elif isinstance(obj, (int, np.integer)):
        out.append(b"i%d" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        out.append(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        out.append(b"s%d:" % len(obj) + obj.encode())
    elif obj is None:
        out.append(b"n")
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def digest(obj) -> str:
    parts: list = []
    encode(obj, parts)
    return hashlib.sha256(b"".join(parts)).hexdigest()


def partition(labels) -> np.ndarray:
    """labels renamed 0, 1, ... in the order they first occur, so two
    labellings of one partition of the rows give the same array."""
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def summary(rep) -> str:
    """Termination, counts, row-support and partition hashes, objective and
    feasibility."""
    final = np.asarray(rep.final)
    labels = np.where((final > 0).any(axis=1), final.argmax(axis=1), -1)
    support = digest([final.argmax(axis=1), final > 0])[:8]
    return (f"termination={rep.termination} outer={rep.outer_iterations} "
            f"inner={rep.inner_iterations} support={support} "
            f"partition={digest(partition(labels))[:8]} "
            f"objective={rep.objective:.17g} "
            f"feasibility={rep.feasibility:.17g}")


def hashes(rep, extra_fields=()) -> str:
    """The hash of every field together, the counts, a hash per field."""
    fields = {f: getattr(rep, f) for f in FIELDS}
    fields["final"] = np.asarray(rep.final)
    fields.update(extra_fields)
    per_field = " ".join(digest(v)[:8] for v in fields.values())
    return (f"{digest(fields)[:16]} outer={rep.outer_iterations} "
            f"inner={rep.inner_iterations} {per_field}")


def kindicators_grid(penorth, args) -> None:
    """One line per instance of the K-indicators grid, with the labels'
    hash last; the total solve time goes to stderr."""
    total = 0.0
    for n, k in KINDICATORS_SIZES:
        for noise in KINDICATORS_NOISES:
            for seed in KINDICATORS_SEEDS:
                U = penorth.gen_kindicators(n, k, noise, seed).U
                t0 = time.perf_counter()
                rep = penorth.kindicators_solve(U)
                total += time.perf_counter() - t0
                head = (f"kindicators-grid n={n} k={k} noise={noise} "
                        f"seed={seed}")
                labels = rep.extra["labels"]
                if args.summary:
                    print(f"{head} {summary(rep)} "
                          f"labels={digest(labels)[:8]}", flush=True)
                else:
                    print(f"{head} {hashes(rep, {'labels': labels})}",
                          flush=True)
    print(f"kindicators-grid: solves took {total:.1f} s", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import penorth
    import workloads

    if args.kindicators_grid:
        kindicators_grid(penorth, args)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            wl = workloads.WORKLOADS[name]
            for seed in SEEDS:
                instances = workloads.generate(penorth, wl, seed, tiny=args.tiny)
                run.round_trip(penorth, np, instances, tmp, {})
                for i, inst in enumerate(instances):
                    rep = wl.solve(penorth, inst)
                    if args.summary:
                        print(f"{name} seed={seed} i={i} {summary(rep)}",
                              flush=True)
                        continue
                    print(f"{name} seed={seed} i={i} {hashes(rep)}",
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
