"""Command-line interface.

Subcommands: instance generators (gen-projection, gen-onmf), single-run
solvers (project, onmf, opnmf, kindicators), a stationarity checker
(check-kkt), and batch benchmarks (bench table-proj / table-onmf).

Exit codes: 0 success, 2 invalid input or configuration, 3 solver failure.
Generated instances write the primary matrix to --out, companions to
sibling files (<stem>_xstar<ext>, <stem>_labels.csv) plus a
<stem>.manifest.json describing the generation parameters.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import click
import numpy as np

from . import io as pio
from .driver import kindicators_preset, onmf_preset, projection_preset
from .errors import (BadShape, DimensionMismatch, ParseError, SolverError,
                     ValidationError)
from .penalty import check_stationarity_original
from .problems import (LinearObjective, TargetDistanceObjective,
                       clustering_metrics, drop_zero_columns, gen_onmf,
                       gen_projection, kindicators_solve, resi, solve_onmf,
                       solve_projection)
from .rounding import _row_argmax
from .types import DriverConfig


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValidationError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except SolverError as exc:
            click.echo(f"solver failure: {exc}", err=True)
            sys.exit(3)
    return wrapper


def _sibling(path: str, tag: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}_{tag}{ext}"


def _manifest_path(path: str) -> str:
    return os.path.splitext(path)[0] + ".manifest.json"


def _config_overrides(config_path, **flags) -> dict:
    over = {}
    if config_path:
        try:
            loaded = json.loads("".join(pio._read_lines(config_path)))
        except (ParseError, json.JSONDecodeError) as exc:
            raise ValidationError(f"--config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValidationError("--config file must hold a JSON object")
        over.update(loaded)
    names = {f.name for f in dataclasses.fields(DriverConfig)}
    unknown = set(over) - names
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key, val in flags.items():
        if val is not None:
            over[key] = val
    return over


def _emit(payload: dict, out) -> None:
    if out:
        pio.write_report(out, payload)
        click.echo(f"report written to {out}")
    else:
        click.echo(json.dumps(pio._sanitize(payload), indent=2, sort_keys=True))


def _write_labels(path: str, labels) -> None:
    pio._atomic_write(path, ("\n".join(str(int(v)) for v in labels) + "\n",))


def _read_labels(path: str) -> np.ndarray:
    try:
        vals = [v for v in map(str.strip, pio._read_lines(path)) if v]
        return np.array([int(v) for v in vals])
    except (ParseError, ValueError) as exc:
        raise ValidationError(f"labels file {path!r}: {exc}") from None


@click.group()
def main():
    """Exact-penalty solvers for optimization with orthogonal nonnegative columns."""


# ---------------------------------------------------------------------------
# generators


@main.command("gen-projection")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--xi", type=float, default=0.5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, help="target matrix file (.mm/.mtx/.csv)")
@click.option("--format", "fmt", type=click.Choice(["mm", "csv"]), default=None)
@_guarded
def gen_projection_cmd(n, k, xi, seed, out, fmt):
    """Generate a nearest-point instance with planted unique solution."""
    inst = gen_projection(n, k, xi, seed)
    pio.write_matrix(out, inst.C, fmt)
    pio.write_matrix(_sibling(out, "xstar"), inst.X_star, fmt)
    pio.write_report(_manifest_path(out), {
        "command": "gen-projection",
        "params": {"n": n, "k": k, "xi": xi,
                   "hypothesis_ok": inst.hypothesis_ok},
        "seeds": [seed]})
    click.echo(f"wrote {out}, {_sibling(out, 'xstar')}, {_manifest_path(out)}")


@main.command("gen-onmf")
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--xi", type=float, default=0.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, help="data matrix file (.mm/.mtx/.csv)")
@click.option("--format", "fmt", type=click.Choice(["mm", "csv"]), default=None)
@_guarded
def gen_onmf_cmd(n, r, k, xi, seed, out, fmt):
    """Generate a factorization instance A ~ B C with planted labels."""
    inst = gen_onmf(n, r, k, xi, seed)
    pio.write_matrix(out, inst.A, fmt)
    _write_labels(os.path.splitext(out)[0] + "_labels.csv", inst.labels)
    pio.write_report(_manifest_path(out), {
        "command": "gen-onmf", "params": {"n": n, "r": r, "k": k, "xi": xi},
        "seeds": [seed]})
    click.echo(f"wrote {out}, {os.path.splitext(out)[0] + '_labels.csv'}, "
               f"{_manifest_path(out)}")


# ---------------------------------------------------------------------------
# solvers


_common_solver_options = [
    click.option("--out", default=None, help="report JSON (stdout when omitted)"),
    click.option("--config", "config_path", default=None,
                 help="JSON file of driver-config overrides"),
    click.option("--tol-feas", type=float, default=None),
    click.option("--sigma0", type=float, default=None),
    click.option("--tmax", type=int, default=None),
    click.option("--save-solution", default=None,
                 help="write the final matrix to this file"),
]


def _with_solver_options(fn):
    for opt in reversed(_common_solver_options):
        fn = opt(fn)
    return fn


def _finish(report, manifest, out, save_solution):
    payload = {"manifest": manifest}
    payload.update(report.to_dict())
    if save_solution:
        pio.write_matrix(save_solution, report.final)
    _emit(payload, out)


@main.command("project")
@click.option("--in", "inp", required=True, help="target matrix C")
@click.option("--xstar", default=None,
              help="known solution (default: <stem>_xstar<ext> if present)")
@_with_solver_options
@_guarded
def project_cmd(inp, xstar, out, config_path, tol_feas, sigma0, tmax,
                save_solution):
    """Nearest point with orthogonal nonnegative columns."""
    C = pio.read_matrix(inp)
    if xstar is None and os.path.exists(_sibling(inp, "xstar")):
        xstar = _sibling(inp, "xstar")
    Xs = pio.read_matrix(xstar) if xstar else None
    over = _config_overrides(config_path, tol_feas=tol_feas, sigma0=sigma0,
                             t_max=tmax)
    cfg = projection_preset(**over)
    report = solve_projection(C, cfg, X_star=Xs)
    manifest = {"command": "project",
                "params": {"in": os.path.basename(inp), "overrides": over},
                "seeds": []}
    _finish(report, manifest, out, save_solution)


def _onmf_command(name: str, variant: str, doc: str):
    @main.command(name, help=doc)
    @click.option("--in", "inp", required=True, help="data matrix A")
    @click.option("--k", type=int, required=True)
    @click.option("--labels", "labels_path", default=None,
                  help="true labels for clustering metrics")
    @click.option("--hyperspectral", is_flag=True, default=False)
    @_with_solver_options
    @_guarded
    def command(inp, k, labels_path, hyperspectral, out, config_path,
                tol_feas, sigma0, tmax, save_solution):
        A = pio.read_matrix(inp)
        dropped = A.shape[1]
        A = drop_zero_columns(A)
        dropped -= A.shape[1]
        if dropped and k > A.shape[1]:
            raise BadShape(f"k={k} exceeds the {A.shape[1]} column(s) of A "
                           f"left after dropping {dropped} all-zero column(s)")
        over = _config_overrides(config_path, tol_feas=tol_feas,
                                 sigma0=sigma0, t_max=tmax)
        cfg = onmf_preset(hyperspectral=hyperspectral, **over)
        report = solve_onmf(A, k, cfg, variant=variant)
        if labels_path:
            true = _read_labels(labels_path)
            pred = _row_argmax(report.final)[0]
            report.extra["metrics"] = clustering_metrics(pred, true)
        manifest = {"command": name,
                    "params": {"in": os.path.basename(inp), "k": k,
                               "hyperspectral": hyperspectral,
                               "overrides": over},
                    "seeds": []}
        _finish(report, manifest, out, save_solution)
    return command


onmf_cmd = _onmf_command(
    "onmf", "gn", "Orthogonal NMF (per-iteration refit of the second factor).")
opnmf_cmd = _onmf_command(
    "opnmf", "direct", "Projective orthogonal NMF (direct quartic objective).")


@main.command("kindicators")
@click.option("--in", "inp", required=True, help="orthonormal feature matrix U")
@click.option("--labels", "labels_path", default=None,
              help="true labels for clustering metrics")
@click.option("--out", default=None)
@click.option("--save-solution", default=None)
@click.option("--save-labels", default=None,
              help="write predicted labels to this file")
@click.option("--tmax", type=int, default=60, show_default=True)
@_guarded
def kindicators_cmd(inp, labels_path, out, save_solution, save_labels, tmax):
    """Cluster rows of an orthonormal feature matrix."""
    U = pio.read_matrix(inp)
    report = kindicators_solve(U, kindicators_preset(t_max=tmax))
    pred = report.extra["labels"]
    if labels_path:
        report.extra["metrics"] = clustering_metrics(pred, _read_labels(labels_path))
    if save_labels:
        _write_labels(save_labels, pred)
    manifest = {"command": "kindicators",
                "params": {"in": os.path.basename(inp), "t_max": tmax},
                "seeds": []}
    _finish(report, manifest, out, save_solution)


@main.command("check-kkt")
@click.option("--in", "inp", required=True, help="feasible point X")
@click.option("--objective", "obj_kind", type=click.Choice(["linear", "target"]),
              required=True)
@click.option("--c", "c_path", required=True, help="objective data matrix C")
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--out", default=None)
@_guarded
def check_kkt_cmd(inp, obj_kind, c_path, tol, out):
    """Classify a feasible point: stationary / weakly-stationary / neither.

    linear: f = <C, X>. target: f = ||X - C||^2.
    """
    X = pio.read_matrix(inp)
    C = pio.read_matrix(c_path)
    if C.shape != X.shape:
        raise DimensionMismatch(f"C shape {C.shape} != X shape {X.shape}")
    f = LinearObjective(C) if obj_kind == "linear" else TargetDistanceObjective(C)
    rep = check_stationarity_original(X, f, tol=tol)
    payload = {"classification": rep.classification,
               "grad_violation": rep.grad_violation,
               "sign_violation": rep.sign_violation,
               "tol": tol}
    _emit(payload, out)


# ---------------------------------------------------------------------------
# benchmarks


def _proj_job(args, tmax=None):
    n, k, xi, seed = args
    inst = gen_projection(n, k, xi, seed)
    cfg = (projection_preset(t_max=tmax) if tmax is not None
           else projection_preset())
    rep = solve_projection(inst.C, cfg, X_star=inst.X_star)
    return {"n": n, "k": k, "xi": xi, "seed": seed,
            "gap": rep.extra["gap"], "feasibility": rep.feasibility,
            "seconds": rep.seconds, "termination": rep.termination,
            "outer_iterations": rep.outer_iterations}


def _onmf_job(args):
    n, r, k, xi, seed = args
    inst = gen_onmf(n, r, k, xi, seed)
    rep = solve_onmf(inst.A, k)
    ref = resi(inst.A, inst.B)
    pred = _row_argmax(rep.final)[0]
    return {"n": n, "r": r, "k": k, "xi": xi, "seed": seed,
            "resi": rep.extra["resi"], "resi_reference": ref,
            "nmi": clustering_metrics(pred, inst.labels)["nmi"],
            "feasibility": rep.feasibility, "seconds": rep.seconds,
            "termination": rep.termination,
            "outer_iterations": rep.outer_iterations}


def _bench_table(job, grid: dict, seeds: int, workers: int, out, cell,
                 line) -> None:
    """Run job((*point, seed)) on every point of the grid, each option's
    repeated values dropped (first seen kept), and print (line) and write
    one cell (cell of its runs) per point. The pool starts no more workers
    than there are jobs.
    """
    keys = tuple(grid)
    points = list(itertools.product(*map(dict.fromkeys, grid.values())))
    args_list = [point + (seed,) for point in points for seed in range(seeds)]
    workers = min(workers, len(args_list))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, args_list))
    else:
        results = [job(a) for a in args_list]
    results.sort(key=lambda d: tuple(d[key] for key in keys) + (d["seed"],))
    cells = []
    for point in points:
        sel = [r for r in results if tuple(r[key] for key in keys) == point]
        cells.append({**dict(zip(keys, point)), "runs": len(sel), **cell(sel)})
        click.echo(line(cells[-1]))
    if out:
        pio.write_report(out, {"cells": cells, "runs": results})
        click.echo(f"table written to {out}")


@main.group()
def bench():
    """Batch experiment tables."""


@bench.command("table-proj")
@click.option("--n", "ns", type=int, multiple=True, default=(200, 500),
              show_default=True)
@click.option("--k", "ks", type=int, multiple=True, default=(5, 10),
              show_default=True)
@click.option("--xi", "xis", type=float, multiple=True,
              default=(0.5, 0.7, 0.9), show_default=True)
@click.option("--seeds", type=click.IntRange(min=1), default=20,
              show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1,
              metavar="INTEGER", show_default=True)
@click.option("--tmax", type=int, default=None)
@click.option("--out", default=None)
@_guarded
def table_proj_cmd(ns, ks, xis, seeds, workers, tmax, out):
    """Recovery-rate table over sampled nearest-point instances."""
    def cell(rs):
        gaps = np.array([r["gap"] for r in rs])
        return {"suc": int((gaps <= 1e-10).sum()),
                "gap_max": float(gaps.max()),
                "gap_mean": float(gaps.mean()),
                "feasibility_max": float(max(r["feasibility"] for r in rs)),
                "seconds_total": float(sum(r["seconds"] for r in rs))}

    def line(c):
        return (f"n={c['n']:5d} k={c['k']:3d} xi={c['xi']:<5g} "
                f"suc={c['suc']}/{c['runs']} gap_max={c['gap_max']:.2e} "
                f"time={c['seconds_total']:.1f}s")

    _bench_table(functools.partial(_proj_job, tmax=tmax),
                 {"n": ns, "k": ks, "xi": xis}, seeds, workers, out, cell, line)


@bench.command("table-onmf")
@click.option("--n", "ns", type=int, multiple=True, default=(200,),
              show_default=True)
@click.option("--r", "rs_", type=int, multiple=True, default=(600,),
              show_default=True)
@click.option("--k", "ks", type=int, multiple=True, default=(5,),
              show_default=True)
@click.option("--xi", "xis", type=float, multiple=True,
              default=(0.0, 0.01, 0.1), show_default=True)
@click.option("--seeds", type=click.IntRange(min=1), default=5,
              show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1,
              metavar="INTEGER", show_default=True)
@click.option("--out", default=None)
@_guarded
def table_onmf_cmd(ns, rs_, ks, xis, seeds, workers, out):
    """Residual/feasibility table over sampled factorization instances."""
    def cell(sel):
        return {"resi_mean": float(np.mean([x["resi"] for x in sel])),
                "resi_max": float(np.max([x["resi"] for x in sel])),
                "resi_reference_mean": float(
                    np.mean([x["resi_reference"] for x in sel])),
                "feasibility_max": float(
                    np.max([x["feasibility"] for x in sel])),
                "nmi_mean": float(np.mean([x["nmi"] for x in sel])),
                "settled": sum(x["termination"] == "settled" for x in sel),
                "seconds_total": float(np.sum([x["seconds"] for x in sel]))}

    def line(c):
        return (f"n={c['n']:5d} r={c['r']:5d} k={c['k']:3d} "
                f"xi={c['xi']:<6g} resi_max={c['resi_max']:.2e} "
                f"feasi_max={c['feasibility_max']:.2e} "
                f"nmi_mean={c['nmi_mean']:.4f} "
                f"settled={c['settled']}/{c['runs']} "
                f"time={c['seconds_total']:.1f}s")

    _bench_table(_onmf_job, {"n": ns, "r": rs_, "k": ks, "xi": xis}, seeds,
                 workers, out, cell, line)


if __name__ == "__main__":
    main()
