"""Inner solvers: slice projection, projected gradient, semismooth Newton.

The semismooth Newton subproblem solves get compared against an
exhaustive active-set enumeration, which is exact for positive-definite
models, so agreement here certifies the fixed-point machinery end to end.
"""

import dataclasses
import hashlib
import inspect
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from penorth import make_context, make_oblique
from penorth.driver import feasible_init
from penorth.errors import InfeasibleSupport, NegativeEntry
from penorth.manifold import (project_delta_cols, projected_step,
                              riemannian_grad, slice_projector,
                              stationarity_residual)
from penorth.penalty import PenalizedObjective
from penorth.problems import (KindicatorsModel, KindicatorsObjective,
                              LinearObjective, ScaledLinearPenalty,
                              TargetDistanceObjective, gen_kindicators)
from penorth import subsolvers
from penorth.subsolvers import (gradient_projection_solve, newton_solve,
                                solve_qp_subproblem)
from penorth.types import DriverConfig, Objective, PenaltyParams

import oracles


# --------------------------------------------------------------------------
# slice projection


def project_column(x, c):
    """The slice projection of one vector: a one-column project_delta_cols."""
    return project_delta_cols(x[:, None], c[:, None])[:, 0]


def test_project_delta_frozen_examples():
    # x2 = 0 decouples: that coordinate just clips at zero
    z = project_column(np.array([1.0, 0.0]), np.array([2.0, 5.0]))
    assert np.allclose(z, [1.0, 5.0], atol=1e-15)
    z = project_column(np.array([1.0, 0.0]), np.array([2.0, -5.0]))
    assert np.allclose(z, [1.0, 0.0], atol=1e-15)
    r2 = 1.0 / np.sqrt(2.0)
    z = project_column(np.array([r2, r2]), np.array([1.0, 0.0]))
    lam = (1.0 * r2 - 1.0) / 1.0  # one breakpoint scan step, by hand
    assert np.allclose(z, [1.0 - lam * r2, -lam * r2], atol=1e-12)
    assert z[0] == pytest.approx(1.2071067811865475)


def test_project_delta_output_in_slice():
    rng = oracles.rng_for(30)
    for _ in range(100):
        n = rng.integers(2, 7)
        x = np.abs(rng.standard_normal(n))
        x[rng.integers(0, n)] = 0.0  # some dead coordinates
        nx = np.linalg.norm(x)
        if nx == 0:
            continue
        x /= nx
        c = rng.standard_normal(n) * 3
        z = project_column(x, c)
        assert z.min() >= 0
        assert x @ z == pytest.approx(1.0, abs=1e-12)


def test_project_delta_matches_enumeration():
    rng = oracles.rng_for(31)
    for _ in range(40):
        x = np.abs(rng.standard_normal(4)) + 0.05
        x /= np.linalg.norm(x)
        c = rng.standard_normal(4) * 2
        got = project_column(x, c)
        want = oracles.slice_projection_oracle(x, c)
        assert np.allclose(got, want, atol=1e-9)


def test_project_delta_rejects_bad_anchor():
    with pytest.raises(NegativeEntry):
        project_column(np.array([0.9, -0.1]), np.array([1.0, 1.0]))
    # an anchor with no positive entry cannot define the slice at all
    with pytest.raises(InfeasibleSupport):
        project_column(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def test_project_delta_cols_is_columnwise():
    rng = oracles.rng_for(32)
    X = oracles.random_unit_columns(rng, 5, 3)
    C = rng.standard_normal((5, 3))
    Z = project_delta_cols(X, C)
    for j in range(3):
        assert np.allclose(Z[:, j], project_column(X[:, j], C[:, j]),
                           atol=1e-14)


def slice_projection_cases():
    """(X, C) pairs with nonnegative anchors, each column with support."""
    rng = oracles.rng_for(33)
    for n, k in [(1, 1), (1, 3), (4, 1), (5, 3), (30, 4), (100, 3)]:
        for scale in (1e-3, 1.0, 1e3, 1e7):
            X = oracles.random_unit_columns(rng, n, k)
            yield X, scale * rng.standard_normal((n, k))
            # sparse supports: most entries of the anchor are zero
            Xs = X * (rng.random((n, k)) < 0.3)
            Xs[rng.integers(0, n, size=k), np.arange(k)] = 1.0
            yield Xs, scale * rng.standard_normal((n, k))
            # ties: rounded anchors and targets repeat breakpoints
            Xt = np.round(X, 1)
            Xt[0] += 0.5
            yield Xt, np.round(scale * rng.standard_normal((n, k)), 1)
        # single-entry supports: each anchor a coordinate vector
        E = np.zeros((n, k))
        E[rng.integers(0, n, size=k), np.arange(k)] = 1.0
        yield E, rng.standard_normal((n, k))


def test_project_delta_cols_matches_scan_bit_for_bit():
    count = 0
    for X, C in slice_projection_cases():
        got = project_delta_cols(X, C)
        want = oracles.slice_projection_scan(X, C)
        assert got.tobytes() == want.tobytes(), (X, C)
        count += 1
    assert count == 78


def test_slice_projector_reused_matches_scan_bit_for_bit():
    # one projector per anchor, applied to several targets in turn: what
    # it keeps from the anchor must not change between calls
    count = 0
    for X, C in slice_projection_cases():
        project = slice_projector(X)
        for T in (C, -C, 3.0 * C, C):
            got = project(T)
            want = oracles.slice_projection_scan(X, T)
            assert got.tobytes() == want.tobytes(), (X, T)
        count += 1
    assert count == 78


def test_slice_projector_checks_anchor_when_built():
    X = np.array([[1.0, 0.6, 1.0], [0.0, 0.8, 0.0]])
    Xn = X.copy()
    Xn[1, 2] = -0.1
    with pytest.raises(NegativeEntry):
        slice_projector(Xn)
    Xz = X.copy()
    Xz[:, 1] = 0.0
    with pytest.raises(InfeasibleSupport):
        slice_projector(Xz)


def test_project_delta_cols_rejects_bad_anchor_column():
    X = np.array([[1.0, 0.6, 1.0], [0.0, 0.8, 0.0]])
    C = np.ones_like(X)
    Xn = X.copy()
    Xn[1, 2] = -0.1
    with pytest.raises(NegativeEntry):
        project_delta_cols(Xn, C)
    Xz = X.copy()
    Xz[:, 1] = 0.0
    with pytest.raises(InfeasibleSupport):
        project_delta_cols(Xz, C)


# --------------------------------------------------------------------------
# test objectives


class Quadratic(Objective):
    """h(X) = 0.5 * ||X - T||^2, the friendliest strongly convex model."""

    def __init__(self, T):
        self.T = np.asarray(T, dtype=float)

    def value(self, X):
        return 0.5 * float(np.sum((X - self.T) ** 2))

    def grad(self, X):
        return X - self.T

    def hess_apply(self, X, D):
        return D


class LyingGradient(Objective):
    """Pretends to ascend: the reported gradient points the wrong way.

    No Armijo test can pass with it, which pins down the line-search
    failure path deterministically. A fixed step climbs h until it stops
    moving, far above the start it then falls back to.
    """

    def __init__(self, T):
        self.T = np.asarray(T, dtype=float)

    def value(self, X):
        return 0.5 * float(np.sum((X - self.T) ** 2))

    def grad(self, X):
        return -(X - self.T) - 1.0


# --------------------------------------------------------------------------
# gradient projection


def test_gp_reaches_stationarity_on_quadratic():
    rng = oracles.rng_for(33)
    T = np.abs(rng.standard_normal((6, 2))) + 0.1
    h = Quadratic(T)
    X0 = make_oblique(oracles.random_unit_columns(rng, 6, 2))
    X, rep = gradient_projection_solve(h, X0, 1e-12, 1000)
    assert rep.kkt_residual <= 1e-8
    assert rep.final_value <= h.value(X0) + 1e-15
    assert rep.converged


def test_gp_fixed_alpha_descends():
    rng = oracles.rng_for(34)
    T = np.abs(rng.standard_normal((5, 2))) + 0.1
    h = Quadratic(T)  # 1-Lipschitz gradient, so alpha = 0.99 is safe
    X0 = make_oblique(oracles.random_unit_columns(rng, 5, 2))
    X, rep = gradient_projection_solve(h, X0, 1e-12, 1000, fixed_alpha=0.99)
    assert rep.final_value <= h.value(X0) + 1e-15
    assert rep.kkt_residual <= 1e-6


def test_gp_line_search_failure_flag_and_safeguard():
    rng = oracles.rng_for(35)
    T = np.abs(rng.standard_normal((4, 2))) + 0.1
    h = LyingGradient(T)
    X0 = make_oblique(oracles.random_unit_columns(rng, 4, 2))
    X, rep = gradient_projection_solve(h, X0, 1e-8, 50)
    assert "LineSearchFailure" in rep.flags
    # best-iterate safeguard: never worse than the start
    assert rep.final_value <= h.value(X0) + 1e-15


class Gentle(Quadratic):
    """Quadratic with curvature 1e-3: BB steps near 1e3, far above 10 k."""

    def value(self, X):
        return 1e-3 * super().value(X)

    def grad(self, X):
        return 1e-3 * super().grad(X)


def recorded_trials(monkeypatch):
    """Record (alpha, trial point) of every projected step the solver takes."""
    trials = []
    step = subsolvers.projected_step

    def recording_step(X, alpha, G):
        Xn = step(X, alpha, G)
        trials.append((alpha, Xn))
        return Xn

    monkeypatch.setattr(subsolvers, "projected_step", recording_step)
    return trials


def test_gp_alpha_cap_respected(monkeypatch):
    # only the BB step without a line search is capped, at 10 k
    rng = oracles.rng_for(36)
    T = np.abs(rng.standard_normal((5, 2))) + 0.1
    X0 = make_oblique(oracles.random_unit_columns(rng, 5, 2))
    trials = recorded_trials(monkeypatch)
    top = {}
    for line_search in (True, False):
        trials.clear()
        X, rep = gradient_projection_solve(Gentle(T), X0, 1e-8, 30,
                                           line_search=line_search)
        top[line_search] = max(a for a, _ in trials)
        assert rep.final_value <= Gentle(T).value(X0) + 1e-15
    assert top[True] > 20.0 and top[False] == 20.0


def test_gp_bare_bb_first_step_cap_and_safeguard(monkeypatch):
    # gentle curvature: the BB step 1/curvature is far above the cap
    rng = oracles.rng_for(38)
    T = np.abs(rng.standard_normal((6, 3))) + 0.1
    X0 = make_oblique(oracles.random_unit_columns(rng, 6, 3))
    h = Gentle(T)
    trials = recorded_trials(monkeypatch)
    cap = 30.0  # 10 k
    X, rep = gradient_projection_solve(h, X0, 1e-8, 30, line_search=False)
    first = projected_step(X0, 1.0, h.grad(X0))
    assert trials[0][0] == 1.0
    assert np.array_equal(trials[0][1], first)
    # no line search: one trial per iteration, each one taken
    assert len(trials) == rep.iterations
    assert max(a for a, _ in trials) == cap
    assert rep.final_value <= h.value(X0)


class Recording(Objective):
    """Delegates to h and records each call as (method, index of the array
    by first appearance), keeping a copy of every array it is shown and
    the value h returned at each."""

    def __init__(self, h):
        self.h = h
        self.calls = []
        self.seen = []
        self.copies = []
        self.values = {}

    def _index(self, X):
        for i, A in enumerate(self.seen):
            if A is X:
                return i
        self.seen.append(X)
        self.copies.append(X.copy())
        return len(self.seen) - 1

    def value(self, X):
        i = self._index(X)
        self.calls.append(("value", i))
        self.values[i] = self.h.value(X)
        return self.values[i]

    def grad(self, X):
        self.calls.append(("grad", self._index(X)))
        return self.h.grad(X)


def _linear_model(n, k, seed):
    C = oracles.rng_for(seed).random((n, k))
    return lambda: ScaledLinearPenalty(C, make_context(n, k), 1.0)


def _kindicators_model(n, k, seed, sigma):
    U = gen_kindicators(n, k, 0.5, seed).U
    return lambda: KindicatorsModel(KindicatorsObjective(U), make_context(n, k),
                                    sigma)


def _lying(n, k, seed):
    T = np.abs(oracles.rng_for(seed).standard_normal((n, k))) + 0.1
    return lambda: LyingGradient(T)


FIXED = dict(tol=1e-4, max_iter=300, fixed_alpha=0.99)
BARE = dict(tol=1e-5, max_iter=60, line_search=False)
LINE_SEARCH = dict(tol=1e-5, max_iter=60)

# objective factory, solver arguments, and the branches the run must take:
# whether it converges, backtracks in the line search, ends on a worse
# iterate than its best (and falls back to it), or fails the line search.
# Each fixture takes its branches by a margin far above rounding (see
# decision_margins), so a change that moves the iterates by a few ulps
# leaves them as they are: the tolerances stop every converging run while
# its steps still lower h well above rounding.
GP_CASES = {
    "fixed": (_linear_model(60, 4, 1), FIXED, {"converges"}),
    "fixed-fallback": (_lying(60, 4, 43), dict(FIXED, tol=1e-5),
                       {"converges", "falls back"}),
    "bb-bare": (_kindicators_model(60, 4, 0, 10.0), BARE, {"converges"}),
    "bb-bare-fallback": (_kindicators_model(60, 4, 2, 100.0), BARE,
                         {"converges", "falls back"}),
    "bb-bare-budget": (_kindicators_model(60, 4, 0, 100.0), BARE,
                       {"falls back"}),
    "bb-line-search": (_kindicators_model(60, 4, 3, 10.0), LINE_SEARCH,
                       {"converges", "backtracks"}),
    "bb-line-search-fallback": (_kindicators_model(60, 4, 10, 100.0),
                                LINE_SEARCH,
                                {"converges", "backtracks", "falls back"}),
    "bb-line-search-linear": (_linear_model(60, 4, 3),
                              dict(tol=1e-4, max_iter=300), {"converges"}),
    "line-search-failure": (_lying(60, 4, 43), dict(tol=1e-8, max_iter=50),
                            {"backtracks", "fails"}),
}


def decision_margins(h, tol, line_search):
    """How far the recorded run's decisions were from a tie, each relative
    to the values it compared.

    "falls back": (h(last) - h(best earlier)) / |h(best)| over the
    accepted iterates, positive when the loop falls back. "armijo": the
    smallest |fmax - ARMIJO <S, S> - h(trial)| / |fmax| over the line
    search's trials. "step": the smallest |norm(S) - tol| / tol over the
    accepted steps.
    """
    accepted, armijo = [], []
    for method, i in h.calls:
        if method == "grad":
            if i not in accepted:  # not the fall-back gradient
                accepted.append(i)
        elif accepted and line_search:  # a trial from the last iterate
            fmax = max(h.values[j] for j in accepted[-subsolvers.WINDOW:])
            S = h.copies[i] - h.copies[accepted[-1]]
            slack = fmax - subsolvers.ARMIJO * float(np.sum(S * S)) - h.values[i]
            armijo.append(abs(slack) / abs(fmax))
    vals = [h.values[i] for i in accepted]
    steps = [np.linalg.norm(h.copies[b] - h.copies[a])
             for a, b in zip(accepted, accepted[1:])]
    margins = {"step": min(abs(s - tol) / tol for s in steps)} if steps else {}
    if armijo:
        margins["armijo"] = min(armijo)
    if len(vals) > 1:
        margins["falls back"] = (vals[-1] - min(vals[:-1])) / abs(min(vals))
    return margins


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("case", sorted(GP_CASES))
def test_gp_matches_reference_bit_for_bit(case, order):
    """The loop against its earlier form (oracles), which held the
    previous iterate and gradient: the same final bits and layout, the
    same report, and the same calls on the same array objects."""
    make_h, kwargs, exercises = GP_CASES[case]
    n, k = 60, 4
    U = gen_kindicators(n, k, 0.3, 44).U
    start = np.abs(U) / np.linalg.norm(U, axis=0)
    X0 = make_oblique(np.asarray(start, order=order), copy=False)
    runs = []
    for solve in (gradient_projection_solve, oracles.gradient_projection_reference):
        h = Recording(make_h())
        X, rep = solve(h, X0, **kwargs)
        runs.append((X, rep, h))
    (X, rep, h), (X_ref, rep_ref, h_ref) = runs
    assert X.tobytes() == X_ref.tobytes() and X.strides == X_ref.strides
    for field in ("iterations", "final_value", "step_norm", "kkt_residual",
                  "converged", "flags"):
        got, want = getattr(rep, field), getattr(rep_ref, field)
        assert np.array_equal(got, want), field
    assert h.calls == h_ref.calls
    # the contract the identity caches rely on: every array is first
    # evaluated, a gradient always follows the value at the same array,
    # and nothing h was shown is written afterwards
    first = {}
    for j, (method, i) in enumerate(h.calls):
        first.setdefault(i, method)
        if method == "grad" and j + 1 < len(h.calls):
            assert h.calls[j - 1] == ("value", i)
    assert set(first.values()) == {"value"}
    for A, copy in zip(h.seen, h.copies):
        assert A.tobytes() == copy.tobytes()
    # each case takes the branches it is meant to cover
    taken = set()
    if rep.converged:
        taken.add("converges")
    if [m for m, _ in h.calls].count("value") > rep.iterations + 1:
        taken.add("backtracks")
    if "LineSearchFailure" in rep.flags:
        taken.add("fails")
    elif h.calls[-1] != ("grad", len(h.seen) - 1):
        taken.add("falls back")  # the last gradient is at an earlier point
    assert taken == exercises
    # ... and takes them by a margin far above rounding
    line_search = kwargs.get("line_search", True) and "fixed_alpha" not in kwargs
    margins = decision_margins(h, kwargs["tol"], line_search)
    assert margins.get("step", 1.0) >= 1e-6
    assert margins.get("armijo", 1.0) >= 1e-12
    if "fails" not in taken:
        if "falls back" in taken:
            assert margins["falls back"] >= 1e-8
        else:
            assert margins["falls back"] <= -1e-12


def gp_start():
    """The start of the reference comparison, C-ordered."""
    U = gen_kindicators(60, 4, 0.3, 44).U
    return make_oblique(np.abs(U) / np.linalg.norm(U, axis=0))


def give_up_on(calls):
    """A give_up test that holds on the calls numbered in calls (from 1);
    it records each iterate and value it is shown."""
    shown = []

    def give_up(X, fX):
        shown.append((X, fX))
        return len(shown) in calls
    return give_up, shown


# a model the loop takes more than 50 iterations to converge on
SLOW_MODEL = _kindicators_model(60, 4, 7, 100.0)


@pytest.mark.parametrize("case", sorted(GP_CASES))
def test_gp_give_up_that_never_holds_matches_reference(case):
    # the test is asked on every iterate and changes nothing: the same
    # bits, report and calls on h as the loop without it
    make_h, kwargs, _ = GP_CASES[case]
    X0 = gp_start()
    asked = []
    h = Recording(make_h())
    X, rep = gradient_projection_solve(
        h, X0, **kwargs, give_up=lambda X, fX: asked.append(fX) or False)
    h_ref = Recording(make_h())
    X_ref, rep_ref = oracles.gradient_projection_reference(h_ref, X0, **kwargs)
    assert X.tobytes() == X_ref.tobytes()
    for field in ("iterations", "final_value", "step_norm", "kkt_residual",
                  "converged", "flags"):
        assert np.array_equal(getattr(rep, field), getattr(rep_ref, field))
    assert h.calls == h_ref.calls
    # once per iterate, except one that meets tol or fails the line search
    stopped = rep.converged or "LineSearchFailure" in rep.flags
    assert len(asked) == rep.iterations - stopped


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("j", [1, 5])
def test_gp_give_up_stops_on_the_first_held_iterate(j, line_search):
    h = SLOW_MODEL()
    X0 = gp_start()
    give_up, shown = give_up_on({j, j + 1})  # call j + 1 never comes
    X, rep = gradient_projection_solve(h, X0, 1e-12, 200,
                                       line_search=line_search,
                                       give_up=give_up)
    assert rep.iterations == len(shown) == j
    # the iterate the test held on, not the best one seen
    assert X is shown[-1][0]
    assert rep.final_value == shown[-1][1] == h.value(X)
    if j == 5:  # here an earlier iterate was better
        assert rep.final_value > min(fX for _, fX in shown)
    assert rep.flags == ["Abandoned"] and not rep.converged
    assert rep.kkt_residual == stationarity_residual(X, h.grad(X))


def test_gp_give_up_stops_only_where_it_holds():
    # iterates the test does not hold on never stop the loop, however many
    X0 = gp_start()
    give_up, shown = give_up_on({30})
    X, rep = gradient_projection_solve(SLOW_MODEL(), X0, 1e-12, 200,
                                       line_search=False, give_up=give_up)
    assert rep.iterations == len(shown) == 30
    assert X is shown[-1][0] and rep.flags == ["Abandoned"]
    # a budget that runs out first keeps the best-iterate safeguard
    give_up, shown = give_up_on({30})
    h = SLOW_MODEL()
    X, rep = gradient_projection_solve(h, X0, 1e-12, 29,
                                       line_search=False, give_up=give_up)
    assert rep.iterations == len(shown) == 29 and rep.flags == []
    assert rep.final_value == min([h.value(X0)]
                                  + [fX for _, fX in shown])
    assert rep.final_value < shown[-1][1]  # not the last iterate


# --------------------------------------------------------------------------
# semismooth Newton for the tangent-cone QP


def random_spd_model(rng, n, k, mu=1.0):
    m = n * k
    R = rng.standard_normal((m, m))
    M = R @ R.T + mu * np.eye(m)
    g = rng.standard_normal((n, k))
    return M, g


def test_qp_matches_enumeration_oracle():
    rng = oracles.rng_for(37)
    for trial in range(12):
        n, k = [(2, 2), (3, 2), (4, 2)][trial % 3]
        X = oracles.random_unit_columns(rng, n, k)
        M, g = random_spd_model(rng, n, k, mu=float(n))
        hess = lambda W, M=M, n=n, k=k: (M @ W.ravel()).reshape(n, k)
        alpha = 1.0 / (np.linalg.eigvalsh(M)[-1] + 1.0)
        D, info = solve_qp_subproblem(make_oblique(X), g, hess, alpha,
                                      tol=1e-11)
        Do, _ = oracles.qp_enumeration_oracle(X, g, hess)
        assert info["converged"]
        assert np.allclose(D, Do, atol=1e-8)


def test_qp_returns_tangent_direction():
    rng = oracles.rng_for(38)
    X = oracles.random_unit_columns(rng, 4, 3)
    M, g = random_spd_model(rng, 4, 3, mu=4.0)
    hess = lambda W: (M @ W.ravel()).reshape(4, 3)
    D, info = solve_qp_subproblem(make_oblique(X), g, hess,
                                  1.0 / np.linalg.eigvalsh(M)[-1])
    assert np.allclose(np.einsum("ij,ij->j", X, D), 0.0, atol=1e-12)
    assert ((X + D) >= -1e-14).all()


def test_qp_residual_certificate():
    rng = oracles.rng_for(39)
    for _ in range(10):
        X = oracles.random_unit_columns(rng, 5, 2)
        M, g = random_spd_model(rng, 5, 2, mu=2.0)
        hess = lambda W, M=M: (M @ W.ravel()).reshape(5, 2)
        D, info = solve_qp_subproblem(make_oblique(X), g, hess,
                                      1.0 / (np.linalg.eigvalsh(M)[-1] + 1),
                                      tol=1e-9)
        assert info["converged"] and info["residual"] <= 1e-9


@pytest.mark.parametrize("max_iter, converged", [(50, True), (1, False)])
def test_qp_residual_is_of_returned_point(monkeypatch, max_iter, converged):
    # the solver carries fixed-point values across iterations; the residual
    # it reports must still be that of the point it returns
    rng = oracles.rng_for(40)
    X = oracles.random_unit_columns(rng, 6, 3)
    M, g = random_spd_model(rng, 6, 3, mu=1.0)
    hess = lambda W: (M @ W.ravel()).reshape(6, 3)
    alpha = 1.0 / (np.linalg.eigvalsh(M)[-1] + 1)
    images = []

    def recording_projector(Xd):
        project = slice_projector(Xd)

        def recording(C):
            out = project(C)
            images.append(out)
            return out

        return recording

    monkeypatch.setattr(subsolvers, "slice_projector", recording_projector)
    D, info = solve_qp_subproblem(make_oblique(X), g, hess, alpha,
                                  tol=1e-12, max_iter=max_iter)
    assert info["converged"] is converged
    assert ("MaxIterReached" in info["flags"]) is not converged
    # the returned D is P - X for the projected point P the solver kept
    P = [Y for Y in images if np.array_equal(Y - X, D)][-1]
    fixed = project_delta_cols(X, P - alpha * (g + hess(P - X)))
    assert float(np.linalg.norm(P - fixed)) == info["residual"]


def indefinite_model(seed, n=8, k=3):
    """A QP whose model has negative curvature: the SSN line search then
    often fails, as on ONMF's stalled QPs."""
    rng = oracles.rng_for(seed)
    X = make_oblique(oracles.random_unit_columns(rng, n, k))
    m = n * k
    R = rng.standard_normal((m, m))
    M = R @ R.T / m - 0.5 * np.eye(m)
    g = rng.standard_normal((n, k))
    alpha = 1.0 / (np.abs(np.linalg.eigvalsh(M)).max() + 1)
    return X, g, lambda W: (M @ W.ravel()).reshape(n, k), alpha


def shown_directions(calls):
    """A QP give_up test that holds on the calls numbered in calls (from 1);
    it records each direction it is shown."""
    shown = []

    def give_up(D):
        shown.append(D)
        return len(shown) in calls
    return give_up, shown


# seed: (exit, iterations, residual, sha256 of D's bytes, first 16 digits),
# all as the QP gave them before it had a forcing term or a give-up test
QP_BEFORE = {60: ("converged", 34, 4.522673956367813e-16, "864c84284688e88f"),
             61: ("max-iter", 50, 0.022002134590269805, "9020a04a7fec94e9")}


@pytest.mark.parametrize("seed", sorted(QP_BEFORE))
def test_qp_without_forcing_or_a_held_give_up_keeps_its_bits(seed):
    X, g, hess, alpha = indefinite_model(seed)
    give_up, shown = shown_directions(set())
    D, info = solve_qp_subproblem(X, g, hess, alpha, forcing=0.0,
                                  give_up=give_up)
    exit_, iterations, residual, digest = QP_BEFORE[seed]
    assert (info["exit"], info["iterations"]) == (exit_, iterations)
    assert info["residual"] == residual
    assert hashlib.sha256(D.tobytes()).hexdigest()[:16] == digest
    assert len(shown) == iterations - (exit_ == "converged")
    D0, info0 = solve_qp_subproblem(X, g, hess, alpha)
    assert D0.tobytes() == D.tobytes() and info0 == info


@pytest.mark.parametrize("j", [1, 3, 50])
def test_qp_give_up_stops_on_the_first_held_iterate(j):
    X, g, hess, alpha = indefinite_model(61)
    never, every = shown_directions(set())
    solve_qp_subproblem(X, g, hess, alpha, give_up=never)
    give_up, shown = shown_directions({j, j + 1})  # call j + 1 never comes
    D, info = solve_qp_subproblem(X, g, hess, alpha, give_up=give_up)
    assert len(shown) == info["iterations"] == j
    assert info["exit"] == "certified" and not info["converged"]
    assert "MaxIterReached" not in info["flags"]
    # the same iterates as the solve that ran on, up to the held one
    assert all(a.tobytes() == b.tobytes() for a, b in zip(shown, every))
    assert D.tobytes() == shown[-1].tobytes()


def test_qp_forcing_exit_cuts_the_same_iterates_short():
    X, g, hess, alpha = indefinite_model(60)
    never, every = shown_directions(set())
    solve_qp_subproblem(X, g, hess, alpha, give_up=never)
    r1 = solve_qp_subproblem(X, g, hess, alpha, tol=np.inf)[1]["residual"]
    D, info = solve_qp_subproblem(X, g, hess, alpha, forcing=0.5)
    assert info["exit"] == "forcing" and info["converged"]
    assert 1e-8 < info["residual"] <= 0.5 * r1
    assert 1 < info["iterations"] < QP_BEFORE[60][1]
    assert D.tobytes() == every[info["iterations"] - 1].tobytes()
    # the residual tolerance still wins where it is looser
    Dt, infot = solve_qp_subproblem(X, g, hess, alpha, tol=r1, forcing=0.5)
    assert infot["exit"] == "converged" and infot["iterations"] == 1


def test_qp_hessian_only_sees_float_arrays():
    # every Hessian product of the QP solve, GMRES's included, is on a
    # float array: no product is spent probing the operator's dtype
    rng = oracles.rng_for(41)
    X = oracles.random_unit_columns(rng, 6, 3)
    M, g = random_spd_model(rng, 6, 3, mu=1.0)
    dtypes = []

    def hess(W):
        dtypes.append(W.dtype)
        return (M @ W.ravel()).reshape(6, 3)

    D, info = solve_qp_subproblem(make_oblique(X), g, hess,
                                  1.0 / (np.linalg.eigvalsh(M)[-1] + 1),
                                  tol=1e-12)
    assert info["converged"]
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


# --------------------------------------------------------------------------
# regularized Newton outer loop


def small_penalized(seed, sigma=5.0):
    rng = oracles.rng_for(seed)
    T = oracles.random_feasible(rng, 6, 2)
    f = TargetDistanceObjective(T)
    ctx = make_context(6, 2)
    params = PenaltyParams(sigma=sigma, p=1.0, q=2.0, eps=0.0)
    return PenalizedObjective(f, ctx, params), rng


def test_newton_converges_on_interior_optimum():
    # strictly positive target: the sphere-wise nearest point is interior
    # to the orthant. The solver either certifies the tolerance or stops
    # at the value-noise floor, in which case the iterate itself must
    # already sit at the optimum to within that floor.
    rng = oracles.rng_for(40)
    T = np.abs(rng.standard_normal((6, 2))) + 0.2
    h = Quadratic(T)
    X0 = make_oblique(oracles.random_unit_columns(rng, 6, 2,
                                                  strictly_positive=True))
    X, rep = newton_solve(h, X0, 1e-7, 200)
    assert rep.converged or "ModelAtNoiseFloor" in rep.flags
    assert rep.kkt_residual <= 1e-6
    assert rep.final_value <= h.value(X0) + 1e-15
    want = T / np.linalg.norm(T, axis=0)
    assert np.allclose(X, want, atol=1e-6)
    assert rep.iterations < 30  # superlinear phase, not a grind


def test_newton_degenerate_target_reaches_optimal_value():
    # the minimizer sits exactly on the orthant boundary; the point-wise
    # stationarity measure converges slowly there, but the value and the
    # step-based stop behave
    h, rng = small_penalized(40)
    X0 = make_oblique(oracles.random_unit_columns(rng, 6, 2))
    X, rep = newton_solve(h, X0, 1e-9, 400)
    assert rep.final_value <= 1e-8  # global minimum is 0
    assert rep.final_value <= h.value(X0) + 1e-15


def test_newton_accepted_trials_satisfy_decrease_bound():
    h, rng = small_penalized(41)
    X0 = make_oblique(oracles.random_unit_columns(rng, 6, 2))
    X, rep = newton_solve(h, X0, 1e-9, 200)
    accepted = [t for t in rep.trials if t["accepted"]]
    assert accepted, "solver accepted no step at all"
    for t in accepted:
        assert t["satisfied"]
        assert t["model"] <= t["bound"] + 1e-15


def test_newton_monotone_across_iterations():
    h, rng = small_penalized(42)
    X0 = make_oblique(oracles.random_unit_columns(rng, 6, 2))
    # replay the value along accepted trials through rho bookkeeping:
    # every accepted rho >= eta1 > 0 together with model < 0 means descent
    X, rep = newton_solve(h, X0, 1e-9, 200)
    for t in rep.trials:
        if t["accepted"]:
            assert t["model"] < 0
            assert t["rho"] >= 0.01


def test_newton_budget_flag():
    h, rng = small_penalized(43)
    X0 = make_oblique(oracles.random_unit_columns(rng, 6, 2))
    X, rep = newton_solve(h, X0, 1e-14, 1)
    assert not rep.converged
    assert "MaxIterReached" in rep.flags


def test_newton_checks_start_and_ignores_its_layout():
    h, rng = small_penalized(44)
    A = oracles.random_unit_columns(rng, 6, 2)
    X, rep = newton_solve(h, make_oblique(A), 1e-9, 200)
    # the start is copied to C order on entry, so a Fortran-ordered start
    # gives the same bits
    Xf, repf = newton_solve(h, make_oblique(np.asfortranarray(A), copy=False),
                            1e-9, 200)
    assert np.array_equal(X, Xf)
    assert X.flags.c_contiguous and not X.flags.writeable
    assert rep.trials == repf.trials
    # a start that bypassed make_oblique is checked where it enters
    bad = A.copy()
    bad[0, 0] = -bad[0, 0] - 0.1
    with pytest.raises(NegativeEntry):
        newton_solve(h, bad, 1e-9, 200)


@pytest.mark.parametrize("order", ["C", "F"])
def test_solvers_never_freeze_or_write_a_callers_start(order):
    h, rng = small_penalized(45)
    A = np.array(oracles.random_unit_columns(rng, 6, 2), order=order)
    keep = A.copy(order="K")
    lying = LyingGradient(np.abs(rng.standard_normal((6, 2))) + 0.1)
    runs = [
        gradient_projection_solve(h, A, 1e-9, 50),
        gradient_projection_solve(h, A, 1e-9, 50, fixed_alpha=0.1),
        # the line search fails at once: the loop hands back its start
        gradient_projection_solve(lying, A, np.inf, 50),
        newton_solve(h, A, 1e-9, 50),
    ]
    for X, _ in runs:
        assert X is not A and not X.flags.writeable
    assert np.array_equal(runs[2][0], A)
    assert A.flags.writeable
    assert A.tobytes(order="A") == keep.tobytes(order="A")


def test_gp_returns_a_read_only_start_without_a_copy():
    rng = oracles.rng_for(46)
    h = LyingGradient(np.abs(rng.standard_normal((6, 2))) + 0.1)
    for order in ("C", "F"):
        X0 = make_oblique(np.array(oracles.random_unit_columns(rng, 6, 2),
                                   order=order), copy=False)
        # one uphill step meets the huge tolerance, and the best-iterate
        # safeguard returns the start itself
        X, rep = gradient_projection_solve(h, X0, np.inf, 50, fixed_alpha=1.0)
        assert rep.converged and rep.iterations == 1
        assert X is X0 and rep.final_value == h.value(X0)


@pytest.mark.parametrize("line_search", [True, False])
def test_gp_bb_leaves_a_linear_objectives_target_unwritten(line_search):
    # LinearObjective.grad returns its own target: the BB difference
    # G_new - G must go into an array of the loop's, never into G
    rng = oracles.rng_for(47)
    for order in ("C", "F"):
        C = np.asarray(rng.standard_normal((30, 3)), order=order)
        C.setflags(write=True)
        keep = C.copy()
        h = LinearObjective(C)
        X0 = make_oblique(oracles.random_unit_columns(rng, 30, 3))
        X, rep = gradient_projection_solve(h, X0, 1e-12, 20,
                                           line_search=line_search)
        assert h.C is C and h.grad(X) is C
        assert C.tobytes() == keep.tobytes()
        assert rep.iterations > 1  # BB steps formed differences


class AlternatingLayout(Objective):
    """Delegates to h, returning its gradients column-major and row-major
    in turn."""

    def __init__(self, h):
        self.h = h
        self.grads = 0

    def value(self, X):
        return self.h.value(X)

    def grad(self, X):
        self.grads += 1
        order = "F" if self.grads % 2 else "C"
        return np.array(self.h.grad(X), order=order)


@pytest.mark.parametrize("line_search", [True, False])
def test_gp_bb_difference_keeps_its_bits_when_the_gradient_changes_layout(
        line_search):
    # G_new - G is row-major unless both are column-major; <S, Z> sums in
    # that order, so a column-major -G that receives a row-major G_new
    # in place would move the BB step's bits
    make_h = _kindicators_model(60, 4, 3, 10.0)
    X0 = make_oblique(np.asfortranarray(gp_start()), copy=False)
    kwargs = dict(tol=1e-5, max_iter=60, line_search=line_search)
    X, rep = gradient_projection_solve(AlternatingLayout(make_h()), X0,
                                       **kwargs)
    X_ref, rep_ref = oracles.gradient_projection_reference(
        AlternatingLayout(make_h()), X0, **kwargs)
    assert X.tobytes() == X_ref.tobytes() and X.strides == X_ref.strides
    for field in ("iterations", "final_value", "step_norm", "kkt_residual"):
        assert getattr(rep, field) == getattr(rep_ref, field)
    assert rep.iterations > 4


class CountingGrad(Objective):
    """h with its gradient evaluations counted."""

    def __init__(self, h):
        self.h = h
        self.grads = 0

    def value(self, X):
        return self.h.value(X)

    def grad(self, X):
        self.grads += 1
        return self.h.grad(X)

    def hess_at(self, X):
        return self.h.hess_at(X)


@pytest.mark.parametrize("max_iter", [1, 200])
def test_newton_reuses_the_gradient_at_its_final_point(max_iter):
    # the interior optimum of test_newton_converges_on_interior_optimum
    rng = oracles.rng_for(40)
    h = Quadratic(np.abs(rng.standard_normal((6, 2))) + 0.2)
    X0 = make_oblique(oracles.random_unit_columns(rng, 6, 2,
                                                  strictly_positive=True))
    counted = CountingGrad(h)
    X, rep = newton_solve(counted, X0, 1e-7, max_iter)
    res = np.linalg.norm(np.minimum(X, riemannian_grad(X, h.grad(X))))
    assert rep.kkt_residual == res
    if max_iter == 1:
        # the one iteration moved X: its residual is evaluated afresh
        assert rep.trials[-1]["accepted"] and not rep.converged
        assert counted.grads == 2
    else:
        # stopped (converged or at the noise floor) at the point it last
        # differentiated: no second gradient there
        assert rep.iterations < max_iter
        assert counted.grads == rep.iterations


class RejectingEveryOther(Objective):
    """h whose value reads 1e6 too high at every second trial point, so the
    Newton loop rejects it; it keeps the trial arrays it inflated."""

    def __init__(self, h):
        self.h = h
        self.calls = 0
        self.rejected = []

    def value(self, X):
        self.calls += 1  # the first call is the start's
        if self.calls % 2 == 1 and self.calls > 1:
            self.rejected.append(X)
            return self.h.value(X) + 1e6
        return self.h.value(X)

    def grad(self, X):
        return self.h.grad(X)

    def hess_at(self, X):
        return self.h.hess_at(X)


def newton_with_rejections(**kwargs):
    """newton_solve on small_penalized(40), whose every second trial is
    rejected; returns (X, report, unwrapped h, wrapper)."""
    h, rng = small_penalized(40)
    X0 = make_oblique(oracles.random_unit_columns(rng, 6, 2))
    wrapped = RejectingEveryOther(h)
    X, rep = newton_solve(wrapped, X0, 1e-12, **kwargs)
    return X, rep, h, wrapped


def recorded_qps(monkeypatch):
    """Record each solve_qp_subproblem call's forcing term and info."""
    calls = []
    inner = subsolvers.solve_qp_subproblem

    def solve_qp_subproblem(*args, **kwargs):
        D, info = inner(*args, **kwargs)
        calls.append((kwargs["forcing"], info))
        return D, info

    monkeypatch.setattr(subsolvers, "solve_qp_subproblem", solve_qp_subproblem)
    return calls


def give_up_on_iterates(calls):
    """A Newton give_up test that holds on the accepted iterates numbered in
    calls (from 1) and on no QP candidate. An accepted iterate is read-only
    when it is shown, a QP candidate a fresh writeable array. Records every
    point shown, and the iterates apart."""
    shown, iterates = [], []

    def give_up(Y):
        shown.append(Y)
        if Y.flags.writeable:
            return False
        iterates.append(Y)
        return len(iterates) in calls
    return give_up, shown, iterates


def test_newton_give_up_that_never_holds_changes_nothing(monkeypatch):
    # the test is shown every accepted iterate, no rejected trial, and each
    # QP iterate's full-step candidate that does not end its QP
    qps = recorded_qps(monkeypatch)
    give_up, shown, iterates = give_up_on_iterates(set())
    X, rep, _, wrapped = newton_with_rejections(max_iter=40, give_up=give_up)
    asked_qps = list(qps)
    qps.clear()
    X_ref, rep_ref, _, _ = newton_with_rejections(max_iter=40)
    assert X.tobytes() == X_ref.tobytes()
    assert rep.trials == rep_ref.trials
    assert rep.flags == rep_ref.flags == ["MaxIterReached"]
    assert [info for _, info in asked_qps] == [info for _, info in qps]
    accepted = [t for t in rep.trials if t["accepted"]]
    assert len(iterates) == len(accepted) == rep.iterations // 2
    assert len(shown) - len(iterates) == sum(
        info["iterations"] - info["converged"] for _, info in asked_qps)
    assert wrapped.rejected
    assert not any(np.shares_memory(R, Xa)
                   for R in wrapped.rejected for Xa in iterates)
    assert iterates[-1] is X


@pytest.mark.parametrize("j", [1, 3])
def test_newton_give_up_stops_on_the_first_held_iterate(j):
    give_up, _, iterates = give_up_on_iterates({j, j + 1})  # j + 1 never comes
    X, rep, h, _ = newton_with_rejections(max_iter=200, give_up=give_up)
    assert len(iterates) == j
    # the j-th accepted trial, at iteration 2 j - 1, ended the loop
    assert rep.iterations == 2 * j - 1 == rep.trials[-1]["iter"]
    assert rep.trials[-1]["accepted"]
    assert sum(t["accepted"] for t in rep.trials) == j
    assert X is iterates[-1]
    assert rep.final_value == h.value(X)
    assert rep.flags == ["Abandoned"] and not rep.converged
    assert rep.kkt_residual == stationarity_residual(X, h.grad(X))


def test_newton_give_up_on_the_last_iteration_is_no_budget_stop():
    give_up, _, iterates = give_up_on_iterates({2})
    X, rep, _, _ = newton_with_rejections(max_iter=3, give_up=give_up)
    assert rep.iterations == 3 and len(iterates) == 2
    assert rep.flags == ["Abandoned"]


@pytest.mark.parametrize("j", [1, 4])
def test_newton_give_up_stops_on_a_qp_candidate(monkeypatch, j):
    # the j-th QP candidate shown ends the QP and the loop: the solve
    # returns that candidate unscreened, with a trials entry of its own
    qps = recorded_qps(monkeypatch)
    shown, candidates = [], []

    def give_up(Y):
        shown.append(Y)
        if Y.flags.writeable:  # not an accepted iterate
            candidates.append(Y)
        return len(candidates) == j and candidates[-1] is Y

    X, rep, h, _ = newton_with_rejections(max_iter=200, give_up=give_up)
    assert shown[-1].flags.writeable is False  # frozen as it is returned
    assert X is shown[-1]
    assert rep.flags == ["Abandoned"] and not rep.converged
    assert rep.final_value == h.value(X)
    assert rep.kkt_residual == stationarity_residual(X, h.grad(X))
    last = rep.trials[-1]
    assert last["iter"] == rep.iterations and last["qp_exit"] == "certified"
    assert last["model"] is None and last["rho"] is None
    assert not last["accepted"] and not last["satisfied"]
    assert qps[-1][1]["exit"] == "certified"
    assert last["ssn_iterations"] >= qps[-1][1]["iterations"]
    assert sum(t["ssn_iterations"] for t in rep.trials) == sum(
        info["iterations"] for _, info in qps)
    assert len([t for t in rep.trials if t["iter"] == rep.iterations]) == 1


def test_newton_trials_record_their_qps(monkeypatch):
    # each entry carries its iteration's SSN iterations and its last QP's
    # exit, and each QP is asked to the forcing term min(FORCING_MAX,
    # sqrt(res)) of its first residual. An iteration whose direction fails
    # the angle test solves its QP again: the gradient count tells the
    # iterations apart
    h, rng = small_penalized(40)
    X0 = make_oblique(oracles.random_unit_columns(rng, 6, 2))
    counted = CountingGrad(RejectingEveryOther(h))
    qps = []
    inner = subsolvers.solve_qp_subproblem

    def solve_qp_subproblem(X, rg, *args, **kwargs):
        D, info = inner(X, rg, *args, **kwargs)
        res = float(np.linalg.norm(np.minimum(X, rg)))
        qps.append((counted.grads, kwargs["forcing"], res, info))
        return D, info

    monkeypatch.setattr(subsolvers, "solve_qp_subproblem", solve_qp_subproblem)
    X, rep = newton_solve(counted, X0, 1e-12, 40)
    assert [forcing for _, forcing, _, _ in qps] == [
        min(subsolvers.FORCING_MAX, math.sqrt(res)) for _, _, res, _ in qps]
    exits = {info["exit"] for *_, info in qps}
    assert exits <= {"converged", "forcing", "max-iter"} and "forcing" in exits
    assert len(qps) > len(rep.trials)  # some angle test failed
    by_iteration = {}
    for it, _, _, info in qps:
        by_iteration.setdefault(it, []).append(info)
    assert sorted(by_iteration) == [t["iter"] for t in rep.trials]
    for t in rep.trials:
        infos = by_iteration[t["iter"]]
        assert t["ssn_iterations"] == sum(info["iterations"] for info in infos)
        assert t["qp_exit"] == infos[-1]["exit"]


def settable(fn, fixed):
    """Names of fn's parameters after the first `fixed` ones."""
    return list(inspect.signature(fn).parameters)[fixed:]


def test_solver_configs_hold_only_settings_callers_set():
    # the inner solvers take the driver's tolerance, budget and give-up
    # test, plus the projected-gradient step rule; the Newton safeguards are
    # the paper's fixed constants, not options
    assert settable(gradient_projection_solve, 2) == [
        "tol", "max_iter", "fixed_alpha", "line_search", "give_up"]
    assert settable(newton_solve, 2) == ["tol", "max_iter", "give_up"]
    # the fallback's random stream is fixed
    assert settable(feasible_init, 1) == ["hint"]
    # the driver always minimizes the p = 1, q = 2 model without smoothing,
    # floors the inner tolerance at EPS_GRAD_MIN and is handed its fallback
    names = [f.name for f in dataclasses.fields(DriverConfig)]
    assert names == ["sigma0", "gamma2", "gamma2_rule", "eta", "eps_grad0",
                     "tol_feas", "t_max", "zeta_switch", "force_solver",
                     "fixed_alpha", "max_inner", "do_postprocess", "anchor"]


# --------------------------------------------------------------------------
# start-up cost


def test_no_runtime_path_imports_scipy(tmp_path):
    # GMRES is penorth's own, so no solver needs scipy: in a fresh process
    # where every scipy import fails, each application and the CLI run,
    # and the ONMF solve takes Newton steps, whose QPs call GMRES: its light
    # noise keeps Ky Fan's bound open, so no QP ends on a certified support
    # before its first Newton step
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any "import scipy..." raises
        import numpy as np
        from penorth import io as pio
        from penorth.cli import main
        from penorth.problems import (gen_kindicators, gen_onmf,
                                      gen_projection, kindicators_solve,
                                      solve_onmf, solve_projection)
        solve_projection(gen_projection(30, 3, 0.5, seed=1).C)
        A = gen_onmf(20, 10, 3, xi=0.05, seed=13).A
        from penorth import subsolvers
        own_gmres, calls = subsolvers.gmres, []

        def gmres(*args, **kwargs):
            calls.append(1)
            return own_gmres(*args, **kwargs)

        subsolvers.gmres = gmres
        rep = solve_onmf(A, 3, variant="gn")
        assert any(h["solver"] == "newton" for h in rep.history) and calls
        assert rep.extra["bound_gap"] > 1e-12
        solve_onmf(A, 3, variant="direct")
        kindicators_solve(gen_kindicators(40, 3, 0.3, seed=2).U)
        data, out = sys.argv[1] + "/A.mtx", sys.argv[1] + "/rep.json"
        pio.write_matrix(data, A)
        main(["onmf", "--in", data, "--k", "3", "--out", out],
             standalone_mode=False)
        assert pio.read_report(out)["termination"]
        main(["project", "--in", data, "--out", out], standalone_mode=False)
        assert pio.read_report(out)["termination"]
        print(sorted(m for m in sys.modules if m.startswith("scipy.")))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(subsolvers.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
