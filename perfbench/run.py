#!/usr/bin/env python3
"""Closed-loop solve benchmark for penorth.

One process, one caller: the workload's instances are generated from the
seed, round-tripped through penorth.io as the CLI does, and solved one after
another through the public API. Every output is checked; the last line of
standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) named in
BENCHMARK.json. The exit code is 1 when any check fails.

    python3 perfbench/run.py --workload onmf-gn --seed 1 --seconds 20 --trace 0

``--trace 1`` solves the instance set in untraced passes and then in as
many passes with every layer wrapped from outside (perfbench/spans.py),
checks that all give the same bits, and writes the spans to
.perfbench_out/. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread: iterates depend on the BLAS thread count, and a single
# thread keeps timings independent of the host's core count and load.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is drawn from this many cold set-ups: this process plus
# (SETUP_SAMPLES - 1) fresh child processes.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up, print its stages and exit "
                         "(used for the extra setup_s samples)")
    return ap.parse_args(argv)


def set_up(workload: str, seed: int, tmp: str):
    """Import, generate, io round trip, warm-up solve. Returns its pieces
    and the seconds each stage took (the io round trip per instance).

    The warm-up solves one tiny instance of the same workload so lazy
    imports and first-call library start-up stay out of wall_s; it is the
    same instance for every seed, so it adds no seed-to-seed variation.
    """
    stages = {}
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "penorth", "__init__.py")):
        raise SystemExit(f"penorth sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import numpy as np
    import penorth
    import workloads
    if os.path.dirname(os.path.abspath(penorth.__file__)) != os.path.join(SRC, "penorth"):
        raise SystemExit(f"imported penorth from {penorth.__file__}, not {SRC}")
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    t1 = time.perf_counter()
    stages["import"] = t1 - t0
    instances = workloads.generate(penorth, wl, seed)
    stages["generate"] = time.perf_counter() - t1
    io_errors = round_trip(penorth, np, instances, tmp, stages)
    t2 = time.perf_counter()
    wl.solve(penorth, workloads.generate(penorth, wl, 0, tiny=True)[0])
    stages["warm_up"] = time.perf_counter() - t2
    return penorth, workloads, wl, instances, io_errors, stages


def round_trip(pn, np, instances, tmp, stages) -> list:
    """Write and read back each input through penorth.io; the copy is what
    gets solved. Returns the instances whose copy differs from the original.
    """
    errors = []
    for i, inst in enumerate(instances):
        t0 = time.perf_counter()
        path = os.path.join(tmp, f"input{i}.mtx")
        pn.io.write_matrix(path, inst.matrix)
        back = pn.io.read_matrix(path)
        os.unlink(path)
        stages[f"io.{i}"] = time.perf_counter() - t0
        if back.shape != inst.matrix.shape or not np.array_equal(back, inst.matrix):
            errors.append(f"{inst.label}: io round trip changed the matrix")
        inst.matrix = back
    return errors


def child_setup_stages(args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def passes(wl, seconds: float, traced: bool = False) -> int:
    """Passes over the instance set in a run of this many seconds.

    Each workload's set is sized so one pass takes about wl.pass_seconds on
    a 2-core x86-64 box. The count depends on --seconds only, never on how
    fast the host happens to be, so wall_s always takes the fastest of the
    same number of solves. A traced run makes at least two untraced and as
    many traced passes, so that counts and times can be compared.
    """
    return max(2 if traced else 1, int(seconds // wl.pass_seconds))


def fastest_stages(samples: list) -> float:
    """Sum over the set-up stages of each one's fastest time in samples:
    the wall_s estimator (see fastest) applied to set-up."""
    return sum(min(sample[k] for sample in samples) for k in samples[0])


def fastest(runs: list) -> float:
    """Sum over the instances of each one's fastest solve in runs.

    Other processes on the host only ever add time, and passes several
    seconds apart rarely share a slow spell.
    """
    return sum(min(run[i]["wall_s"] for run in runs)
               for i in range(len(runs[0])))


def solve_all(pn, workloads, wl, instances, tracer=None,
              between=None) -> tuple:
    """Solve each instance once; return (solve seconds, outcomes).

    An outcome keeps a digest of the final matrix, not the report, so the
    process's peak memory does not grow with the number of passes.
    ``between()``, if given, runs after each solve, outside its timing.
    """
    wall = 0.0
    outcomes = []
    for inst in instances:
        lo = len(tracer) if tracer is not None else 0
        t0 = time.perf_counter()
        try:
            rep = wl.solve(pn, inst)
        except pn.PenorthError as exc:
            dt = time.perf_counter() - t0
            wall += dt
            outcomes.append({"instance": inst.label, "digest": None,
                             "wall_s": dt, "raised": True,
                             "error": f"{type(exc).__name__}: {exc}"})
            if between is not None:
                between()
            continue
        dt = time.perf_counter() - t0
        wall += dt
        out = {"instance": inst.label, "wall_s": dt, "raised": False,
               "digest": (rep.final.shape,
                          hashlib.sha256(rep.final.tobytes()).hexdigest(),
                          rep.outer_iterations, rep.inner_iterations),
               "error": workloads.check(pn, inst, rep),
               "outer": rep.outer_iterations, "inner": rep.inner_iterations,
               "objective": rep.objective}
        if out["error"] is None:
            out.update(wl.quality(pn, inst, rep))
        if tracer is not None:
            out["spans"] = tracer.segment(lo, len(tracer))
        outcomes.append(out)
        if between is not None:
            between()
    return wall, outcomes


def wrong_outputs(outcomes) -> list:
    """Check failures among solves that returned an output.

    A solve that raised PenorthError returned nothing to check: it counts
    in ``failed`` (and fail_rate) but does not make the run incorrect.
    """
    return [f"{o['instance']}: {o['error']}" for o in outcomes
            if o["error"] is not None and not o["raised"]]


def raised(outcomes) -> list:
    return [f"{o['instance']}: {o['error']}" for o in outcomes if o["raised"]]


def same_bits(a: list, b: list) -> list:
    """Instances whose final matrix or iteration counts differ between runs."""
    return [x["instance"] for x, y in zip(a, b) if x["digest"] != y["digest"]]


def environment(args, np) -> dict:
    # the checkout is the repository or not one at all: keep git from
    # searching the directories above it
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10,
                             env=git_env)
        commit = "unknown"
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    env=git_env).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def quality_metrics(outcomes) -> dict:
    """recovery_rate (a failed solve did not recover) and nmi_mean."""
    good = [o for o in outcomes if o["error"] is None]
    m = {}
    if any(o.get("recovered") is not None for o in good):
        m["recovery_rate"] = (sum(bool(o.get("recovered")) for o in good)
                              / len(outcomes), "ratio")
    m["nmi_mean"] = (statistics.fmean(o["nmi"] for o in good) if good else 0.0,
                     "ratio")
    return m


def measure(args, state) -> tuple:
    """Untraced run: solve the instance set in passes (see passes()).

    wall_s is the sum of each instance's fastest solve, setup_s the sum of
    each set-up stage's fastest time over SETUP_SAMPLES cold set-ups. The
    set-ups in child processes run between solves, spread evenly over the
    run, so both minima are drawn from the same stretch of the host's time.
    """
    pn, workloads, wl, instances, stages = state
    samples = [stages]
    n_passes = passes(wl, args.seconds)
    slots = n_passes * len(instances)
    marks = {slots * j // SETUP_SAMPLES for j in range(1, SETUP_SAMPLES)}
    done = 0

    def between():
        nonlocal done
        done += 1
        if done in marks:
            samples.append(child_setup_stages(args))

    walls, runs = [], []
    for _ in range(n_passes):
        wall, outcomes = solve_all(pn, workloads, wl, instances,
                                   between=between)
        walls.append(wall)
        runs.append(outcomes)
    outcomes = [o for run in runs for o in run]
    failed = sum(o["error"] is not None for o in outcomes)
    problems = wrong_outputs(outcomes)
    for later in runs[1:]:
        problems += [f"{d}: repeat solve gave different bits"
                     for d in same_bits(runs[0], later)]
    metrics = {
        "setup_s": (fastest_stages(samples), "s"),
        "wall_s": (fastest(runs), "s"),
        "fail_rate": (failed / len(outcomes), "ratio"),
        **quality_metrics(runs[0]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {"pass_walls_s": walls,
              "setup_samples_s": [sum(x.values()) for x in samples],
              "solve_failures": raised(outcomes),
              "solves": [_public(o) for o in runs[0]]}
    return metrics, len(outcomes), failed, problems, detail


def count_spread(tracers) -> dict:
    """Per-layer counts that differ between traced passes: name -> max - min."""
    import spans
    # the first pass also traced the io round trip
    seen = [Counter({f"{k}.calls": row["calls"]
                     for k, row in spans.span_totals(t).items()
                     if not k.startswith("io.")}) + t.counts
            for t in tracers]
    keys = set().union(*seen)
    return {k: max(c[k] for c in seen) - min(c[k] for c in seen)
            for k in sorted(keys) if len({c[k] for c in seen}) > 1}


def measure_traced(args, state, tmp) -> tuple:
    """Untraced and traced passes in turn, one tracer each; per-layer metrics.

    The table comes from the first traced pass. trace.overhead compares the
    traced and untraced sums of each instance's fastest solve, the estimator
    of wall_s; taking the passes in turn keeps a drift of the host's speed
    out of that ratio.
    """
    import spans
    pn, workloads, wl, instances, _ = state
    base, tracers, traced, walls, not_restored = [], [], [], [], []
    io_spans = 0
    for p in range(passes(wl, args.seconds, traced=True)):
        base.append(solve_all(pn, workloads, wl, instances)[1])
        tracer = spans.Tracer()
        tracer.install(pn)
        try:
            if p == 0:
                for inst in instances:
                    path = os.path.join(tmp, "traced.mtx")
                    pn.io.write_matrix(path, inst.matrix)
                    pn.io.read_matrix(path)
                    os.unlink(path)
                io_spans = len(tracer)
            wall, outcomes = solve_all(pn, workloads, wl, instances, tracer)
        finally:
            not_restored += tracer.restore()
        tracers.append(tracer)
        traced.append(outcomes)
        walls.append(wall)
    table = spans.layer_table(tracers[0], walls[0])
    traced_s, untraced_s = fastest(traced), fastest(base)
    table["trace.wall_s"] = (traced_s, "s")
    table["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    # io spans belong to set-up, not to the solve time they would divide
    ranking = sorted(((name, row["self_s"] / walls[0])
                      for name, row in spans.span_totals(tracers[0]).items()
                      if not name.startswith("io.")),
                     key=lambda item: -item[1])
    outcomes = [o for run in base + traced for o in run]
    problems = wrong_outputs(outcomes)
    problems += [f"{d}: traced or repeated solve differs from untraced"
                 for run in base[1:] + traced for d in same_bits(base[0], run)]
    problems += [f"{a}: not restored after tracing" for a in not_restored]
    if io_spans != 2 * len(instances):
        problems.append(f"io spans {io_spans} != {2 * len(instances)}")
    failed = sum(o["error"] is not None for o in outcomes)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json.gz")
    tracers[0].dump(path, {"workload": args.workload, "seed": args.seed})
    detail = {"untraced_wall_s": untraced_s, "traced_pass_walls_s": walls,
              "solve_failures": raised(outcomes),
              "count_spread": count_spread(tracers),
              "self_share_ranking": ranking,
              "spans_file": os.path.relpath(path, ROOT),
              "solves": [_public(o) for o in traced[0]]}
    return table, len(outcomes), failed, problems, detail


def _public(outcome) -> dict:
    return {k: (dict(v) if k == "spans" else v)
            for k, v in outcome.items() if k != "digest"}


def bench_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    names = bench_metrics()[args.trace]
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        pn, workloads, wl, instances, io_errors, stages = set_up(
            args.workload, args.seed, tmp)
        if args.setup_only:
            print(json.dumps(stages))
            return 0
        import numpy as np
        env = environment(args, np)
        state = (pn, workloads, wl, instances, stages)
        if args.trace:
            table, attempted, failed, problems, detail = measure_traced(
                args, state, tmp)
        else:
            table, attempted, failed, problems, detail = measure(args, state)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems = io_errors + problems
    correct = not problems
    for name, (value, unit) in table.items():
        print(f"{name:52s} {value:>14.6g} {unit}")
    for f in detail["solve_failures"]:
        print(f"SOLVE FAILED: {f}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    report = {"env": env, "metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in table.items()},
              "correct": correct, "attempted": attempted, "failed": failed,
              "problems": problems, **detail}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=float)
    print(f"env: {json.dumps(env)}")
    print(f"report: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": table[k][0], "unit": table[k][1]}
                    for k in names}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
