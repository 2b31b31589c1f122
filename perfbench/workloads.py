"""The benchmark's workloads: what each generates, how it solves, how it is checked.

A workload is a fixed list of instances drawn from the run's seed; instance
i of seed s uses generator seed ``1000 * s + i``. The library receives only
the generated matrix (after a write/read round trip through penorth.io, as
the CLI does). Planted solutions and labels stay on the benchmark side and
are used only to judge the output. See README.md for why each exists.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

FEASIBILITY_TOL = 1e-8   # feasibility_violation(final) above this fails a solve
GAP_TOL = 1e-10          # projection: recovered when gap <= this
RESI_TOL = 1e-8          # ONMF: recovered when resi <= resi(A, B) + this


@dataclasses.dataclass
class Instance:
    """One generated input and the planted data that judges its solve."""

    label: str
    matrix: np.ndarray
    k: int
    truth: dict


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named instance set, its solve call and its quality measure.

    ``params(i)`` gives the generator arguments of instance i (size and
    noise); ``tiny`` the same at smoke-test size. ``pass_seconds`` is about
    how long one pass over the set takes on a 2-core x86-64 box.
    """

    name: str
    count: int
    params: Callable[[int], dict]
    tiny: Callable[[int], dict]
    generate: Callable
    solve: Callable
    quality: Callable
    pass_seconds: float = 10.0


def instance_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def _nmi(pn, pred, true) -> float:
    return float(pn.clustering_metrics(np.asarray(pred), np.asarray(true))["nmi"])


def _row_labels(X) -> np.ndarray:
    return np.argmax(np.asarray(X), axis=1)


# -- nearest feasible point -------------------------------------------------

def _gen_projection(pn, seed, p) -> Instance:
    inst = pn.gen_projection(p["n"], p["k"], p["xi"], seed)
    return Instance(f"n={p['n']} k={p['k']} xi={p['xi']} seed={seed}",
                    inst.C, p["k"], {"X_star": inst.X_star})


def _quality_projection(pn, inst, rep) -> dict:
    g = pn.gap(rep.final, inst.truth["X_star"], inst.matrix)
    return {"gap": g, "recovered": g <= GAP_TOL,
            "nmi": _nmi(pn, _row_labels(rep.final),
                        _row_labels(inst.truth["X_star"]))}


# -- orthogonal NMF -------------------------------------------------------

def _gen_onmf(pn, seed, p) -> Instance:
    inst = pn.gen_onmf(p["n"], p["r"], p["k"], p["xi"], seed)
    return Instance(f"n={p['n']} r={p['r']} k={p['k']} xi={p['xi']} seed={seed}",
                    inst.A, p["k"], {"B": inst.B, "labels": inst.labels})


def _quality_onmf(pn, inst, rep) -> dict:
    res = float(rep.extra["resi"])
    ref = pn.resi(inst.matrix, inst.truth["B"])
    return {"resi": res, "resi_planted": ref,
            "recovered": res <= ref + RESI_TOL,
            "nmi": _nmi(pn, _row_labels(rep.final), inst.truth["labels"])}


# -- K-indicators -----------------------------------------------------------

def _gen_kindicators(pn, seed, p) -> Instance:
    inst = pn.gen_kindicators(p["n"], p["k"], p["noise"], seed)
    return Instance(f"n={p['n']} k={p['k']} noise={p['noise']} seed={seed}",
                    inst.U, p["k"], {"labels": inst.labels})


def _quality_kindicators(pn, inst, rep) -> dict:
    return {"recovered": None,
            "nmi": _nmi(pn, rep.extra["labels"], inst.truth["labels"])}


def _alternate(key, values, **fixed):
    return lambda i: dict(fixed, **{key: values[i % len(values)]})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="onmf-gn",
        count=20,
        params=_alternate("xi", (0.0,), n=100, r=200, k=3),
        tiny=_alternate("xi", (0.0,), n=20, r=40, k=2),
        generate=_gen_onmf,
        solve=lambda pn, inst: pn.solve_onmf(inst.matrix, inst.k,
                                             variant="gn"),
        quality=_quality_onmf,
        # solve time varies more between ONMF instances than between
        # repeats of one: one pass over twice the instances
        pass_seconds=20.0),
    Workload(
        name="onmf-direct",
        count=4,
        params=_alternate("xi", (0.0,), n=100, r=200, k=3),
        tiny=_alternate("xi", (0.0,), n=20, r=40, k=2),
        generate=_gen_onmf,
        solve=lambda pn, inst: pn.solve_onmf(inst.matrix, inst.k,
                                             variant="direct"),
        quality=_quality_onmf),
    Workload(
        name="projection",
        count=10,
        params=_alternate("xi", (0.7,), n=5000, k=20),
        tiny=_alternate("xi", (0.7,), n=60, k=4),
        generate=_gen_projection,
        solve=lambda pn, inst: pn.solve_projection(inst.matrix),
        quality=_quality_projection),
    Workload(
        name="kindicators",
        count=4,
        params=_alternate("noise", (0.3, 0.5), n=5000, k=40),
        tiny=_alternate("noise", (0.3, 0.5), n=300, k=4),
        generate=_gen_kindicators,
        solve=lambda pn, inst: pn.kindicators_solve(inst.matrix),
        quality=_quality_kindicators),
)}


def generate(pn, wl: Workload, seed: int, tiny: bool = False) -> list:
    """The workload's instance list for this seed, in solve order."""
    params = wl.tiny if tiny else wl.params
    return [wl.generate(pn, instance_seed(seed, i), params(i))
            for i in range(wl.count)]


def check(pn, inst: Instance, rep) -> Optional[str]:
    """Why the solve's output is wrong, or None when it passes."""
    shape = (inst.matrix.shape[0], inst.k)
    final = np.asarray(rep.final)
    if final.shape != shape:
        return f"final has shape {final.shape}, expected {shape}"
    if not np.isfinite(rep.objective):
        return f"non-finite objective {rep.objective!r}"
    viol = pn.feasibility_violation(final)
    if not viol <= FEASIBILITY_TOL:
        return f"feasibility violation {viol:.3g} > {FEASIBILITY_TOL:g}"
    return None
