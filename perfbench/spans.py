"""Spans and counts recorded around penorth's layers from outside the library.

Every layer of penorth reaches the next one through a module attribute that
is looked up at call time (``driver.newton_solve``, ``subsolvers.gmres``,
``rounding.round``, ...) or through a method of an objective class.
``Tracer.install`` replaces each of those attributes with a wrapper that
records a span -- name, start, end, and the span that was open when it
started -- plus a few counts read off the call's arguments or result.
``Tracer.restore`` puts every original back. No library file changes.

Spans are kept in memory as parallel arrays and written out once, at the
end of a run (``Tracer.dump``). ``layer_table`` turns them into the
per-layer metrics described in perfbench/README.md.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

# Inner solvers: one call per outer iteration, plus one per anchor re-solve.
INNER_SOLVERS = ("subsolvers.gradient_projection_solve",
                 "subsolvers.newton_solve")

# Method spans on objective classes: penalty.* wraps PenalizedObjective,
# problems.f.* the application objectives it (or the driver) evaluates.
OBJECTIVE_METHODS = ("value", "grad", "hess_apply")
APPLICATION_OBJECTIVES = ("LinearObjective", "TargetDistanceObjective",
                          "ScaledLinearPenalty", "OnmfQuadObjective",
                          "OpnmfObjective")


def _count_cols(counts, args, out):
    counts["subsolvers.project_delta_cols.cols"] += args[0].shape[1]


def _count_qp(counts, args, out):
    info = out[1]
    counts["subsolvers.solve_qp_subproblem.ssn_iters"] += info["iterations"]
    counts["subsolvers.solve_qp_subproblem.converged"] += bool(info["converged"])


def _count_newton(counts, args, out):
    rep = out[1]
    counts["subsolvers.newton_solve.iters"] += rep.iterations
    counts["subsolvers.newton_solve.trials"] += len(rep.trials)
    counts["subsolvers.newton_solve.trials_accepted"] += sum(
        bool(t["accepted"]) for t in rep.trials)


def _count_gp(counts, args, out):
    counts["subsolvers.gradient_projection_solve.iters"] += out[1].iterations


def _count_driver(counts, args, out):
    counts["driver.outer_iters"] += out.outer_iterations
    counts["driver.inner_iters"] += out.inner_iterations


def layer_functions(pn) -> dict:
    """Map each traced library function to (span name, count hook).

    Every module attribute of penorth bound to one of these functions is
    wrapped, so a function imported into several modules (the oblique
    projection and its raw twin, rounding.round, postprocess) is traced
    wherever the library looks it up.
    """
    return {
        pn.problems.solve_projection: ("problems.solve_projection", None),
        pn.problems.solve_onmf: ("problems.solve_onmf", None),
        pn.problems.kindicators_solve: ("problems.kindicators_solve", None),
        pn.problems.svd_init: ("problems.svd_init", None),
        pn.problems.onmf_gauss_newton_Y: ("problems.onmf_gauss_newton_Y", None),
        pn.driver.ep4orth_solve: ("driver.ep4orth_solve", _count_driver),
        pn.driver.postprocess: ("driver.postprocess", None),
        pn.driver.gradient_projection_solve: (INNER_SOLVERS[0], _count_gp),
        pn.driver.newton_solve: (INNER_SOLVERS[1], _count_newton),
        pn.subsolvers.solve_qp_subproblem: ("subsolvers.solve_qp_subproblem",
                                            _count_qp),
        pn.subsolvers.project_delta_cols: ("subsolvers.project_delta_cols",
                                           _count_cols),
        pn.manifold.project_oblique_plus: ("manifold.project_ob_plus", None),
        pn.subsolvers._project_ob_plus_raw: ("manifold.project_ob_plus", None),
        pn.manifold.project_tangent_T: ("manifold.project_tangent_T", None),
        pn.manifold.project_orthogonal_group: (
            "manifold.project_orthogonal_group", None),
        pn.rounding.round: ("rounding.round", None),
        pn.io.write_matrix: ("io.write_matrix", None),
        pn.io.read_matrix: ("io.read_matrix", None),
    }


class Tracer:
    """Record spans and counts around penorth's layers while installed."""

    def __init__(self):
        self.names: list = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        # 1 when a span of the same name was already open: its time is
        # inside that outer span and must not be added twice
        self.nested = array("b")
        self.counts: Counter = Counter()
        self._open = -1
        self._open_names: Counter = Counter()
        self._saved: list = []

    def __len__(self):
        return len(self.names)

    def call(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = len(self.names)
        parent = self._open
        self.names.append(name)
        self.parents.append(parent)
        self.nested.append(self._open_names[name] > 0)
        self.ends.append(0.0)
        self._open_names[name] += 1
        self._open = idx
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._open = parent
            self._open_names[name] -= 1

    def _wrapper(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            if hook is not None:
                hook(tracer.counts, args, out)
            return out

        return wrapper

    def _gmres_wrapper(self, gmres):
        tracer = self

        @functools.wraps(gmres)
        def wrapper(A, b, *args, **kwargs):
            # count matrix-vector products from outside: the operator is
            # built per call by the library, so shadow its _matvec on the
            # instance for the duration of the call
            matvec = A._matvec

            def counted(x):
                tracer.counts["subsolvers.gmres.matvecs"] += 1
                return matvec(x)

            A._matvec = counted
            try:
                return tracer.call("subsolvers.gmres", gmres, (A, b) + args,
                                   kwargs)
            finally:
                del A._matvec

        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, pn) -> None:
        """Wrap every traced attribute of the penorth package pn."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        funcs = {id(fn): (fn, spec) for fn, spec in layer_functions(pn).items()}
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == pn.__name__ or name.startswith(pn.__name__ + ".")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                fn, spec = funcs.get(id(val), (None, None))
                if fn is val:
                    self._patch(mod, attr, self._wrapper(val, *spec))
        self._patch(pn.subsolvers, "gmres",
                    self._gmres_wrapper(pn.subsolvers.gmres))
        classes = [("penalty", pn.penalty.PenalizedObjective)] + [
            ("problems.f", getattr(pn.problems, c))
            for c in APPLICATION_OBJECTIVES]
        for prefix, cls in classes:
            for meth in OBJECTIVE_METHODS:
                self._patch(cls, meth, self._wrapper(
                    vars(cls)[meth], f"{prefix}.{meth}", None))

    def restore(self) -> list:
        """Put every original back; return the attributes that failed to."""
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        bad = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, orig in self._saved
               if vars(owner).get(attr) is not orig]
        self._saved = []
        return bad

    def segment(self, lo: int, hi: int) -> Counter:
        """Span counts by name for spans lo..hi-1 (one solve's subtree)."""
        return Counter(self.names[lo:hi])

    def dump(self, path: str, extra: dict) -> None:
        """Write spans (name, parent, start, end) and counts, gzipped JSON."""
        t0 = self.starts[0] if len(self) else 0.0
        payload = dict(extra)
        payload["counts"] = dict(self.counts)
        payload["spans"] = {
            "fields": ["name", "parent", "start_s", "end_s"],
            "rows": [[n, p, round(s - t0, 9), round(e - t0, 9)]
                     for n, p, s, e in zip(self.names, self.parents,
                                           self.starts, self.ends)],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def self_times(parents, starts, ends) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans are recorded on one thread's call stack, so a span's children run
    one after another inside it and never overlap.
    """
    selfs = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            selfs[p] -= ends[i] - starts[i]
    return selfs


def span_totals(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds, self seconds."""
    selfs = self_times(tracer.parents, tracer.starts, tracer.ends)
    out: dict = {}
    for i, name in enumerate(tracer.names):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if not tracer.nested[i]:
            row["s"] += tracer.ends[i] - tracer.starts[i]
    return out


def anchor_resolves(tracer: Tracer) -> int:
    """Inner solves started directly by the driver beyond one per outer iteration."""
    names = tracer.names
    inner = sum(1 for i, p in enumerate(tracer.parents)
                if p >= 0 and names[i] in INNER_SOLVERS
                and names[p] == "driver.ep4orth_solve")
    return inner - int(tracer.counts["driver.outer_iters"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(tracer: Tracer, traced_wall_s: float) -> dict:
    """Per-layer metrics: name -> (value, unit).

    Seconds metrics follow README.md: ``.s`` is inclusive time, ``.self_s``
    excludes the time of traced calls made from inside the layer. Each
    timed layer also gets a ``.share`` of traced_wall_s, the solve time of
    the pass the tracer recorded, and layers a workload never reaches read
    zero.
    """
    tot = span_totals(tracer)
    c = tracer.counts

    def row(name):
        return tot.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    m: dict = {}

    def calls(name):
        m[f"{name}.calls"] = (row(name)["calls"], "count")

    def secs(name, kind):
        value = row(name)[kind]
        m[f"{name}.{kind}"] = (value, "s")
        share = "share" if kind == "s" else "self_share"
        m[f"{name}.{share}"] = (_ratio(value, traced_wall_s), "ratio")

    pdc = "subsolvers.project_delta_cols"
    qp = "subsolvers.solve_qp_subproblem"
    gm = "subsolvers.gmres"
    nw = "subsolvers.newton_solve"
    gp = "subsolvers.gradient_projection_solve"
    calls(pdc)
    m[f"{pdc}.cols"] = (int(c[f"{pdc}.cols"]), "count")
    secs(pdc, "s")
    m[f"{pdc}.per_qp"] = (_ratio(row(pdc)["calls"], row(qp)["calls"]), "count")
    calls(qp)
    secs(qp, "self_s")
    m[f"{qp}.ssn_iters"] = (int(c[f"{qp}.ssn_iters"]), "count")
    m[f"{qp}.converged_ratio"] = (
        _ratio(c[f"{qp}.converged"], row(qp)["calls"]), "ratio")
    calls(gm)
    m[f"{gm}.matvecs"] = (int(c[f"{gm}.matvecs"]), "count")
    secs(gm, "s")
    calls(nw)
    secs(nw, "self_s")
    m[f"{nw}.iters"] = (int(c[f"{nw}.iters"]), "count")
    m[f"{nw}.trial_accept_ratio"] = (
        _ratio(c[f"{nw}.trials_accepted"], c[f"{nw}.trials"]), "ratio")
    calls(gp)
    secs(gp, "self_s")
    m[f"{gp}.iters"] = (int(c[f"{gp}.iters"]), "count")
    for name in ("manifold.project_ob_plus", "manifold.project_tangent_T",
                 "manifold.project_orthogonal_group"):
        calls(name)
        secs(name, "s")
    for meth in OBJECTIVE_METHODS:
        calls(f"penalty.{meth}")
        secs(f"penalty.{meth}", "self_s")
    for meth in OBJECTIVE_METHODS:
        calls(f"problems.f.{meth}")
        secs(f"problems.f.{meth}", "s")
    calls("problems.onmf_gauss_newton_Y")
    secs("problems.onmf_gauss_newton_Y", "s")
    calls("problems.svd_init")
    secs("problems.svd_init", "s")
    calls("problems.kindicators_solve")
    secs("problems.kindicators_solve", "self_s")
    calls("driver.ep4orth_solve")
    secs("driver.ep4orth_solve", "self_s")
    outer = int(c["driver.outer_iters"])
    resolves = anchor_resolves(tracer)
    m["driver.outer_iters"] = (outer, "count")
    m["driver.inner_iters"] = (int(c["driver.inner_iters"]), "count")
    m["driver.anchor_resolves"] = (resolves, "count")
    m["driver.anchor_resolve_ratio"] = (_ratio(resolves, outer), "ratio")
    calls("rounding.round")
    secs("rounding.round", "s")
    calls("driver.postprocess")
    secs("driver.postprocess", "s")
    for name in ("io.write_matrix", "io.read_matrix"):
        calls(name)
        m[f"{name}.s"] = (row(name)["s"], "s")
    return m
