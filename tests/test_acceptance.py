"""Full-system acceptance gates.

Every test here exercises a complete user-facing path at its stated
tolerance and prints one bracketed verdict line, so a verbose suite run
doubles as a summary report. Soft gates print [SOFT] lines and never
fail the run. Everything is seeded; a red test is a regression, not
noise.

Run: pytest -v -s tests/test_acceptance.py
"""

import time

import numpy as np

from penorth import make_context, make_oblique
from penorth.driver import ep4orth_solve, feasible_init
from penorth.manifold import (riemannian_grad, riemannian_hess_apply,
                              stationarity_residual)
from penorth.penalty import (PenalizedObjective, check_stationarity_original,
                             zeta)
from penorth.problems import (LinearObjective, TargetDistanceObjective,
                              clustering_metrics, gen_kindicators,
                              gen_onmf, gen_projection, kindicators_solve,
                              solve_onmf, solve_projection)
from penorth.rounding import rho_q
from penorth.rounding import round as round_point
from penorth.subsolvers import newton_solve, solve_qp_subproblem
from penorth.types import DriverConfig, PenaltyParams

import oracles


def verdict(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


# --------------------------------------------------------------------------
# 1. planted-solution recovery on the nearest-point problem


def projection_cell(n, k, xi, seeds=20):
    gaps, feas = [], []
    for seed in range(seeds):
        inst = gen_projection(n, k, xi, seed=seed)
        rep = solve_projection(inst.C, X_star=inst.X_star)
        gaps.append(rep.extra["gap"])
        feas.append(rep.feasibility)
    return np.asarray(gaps), np.asarray(feas)


def test_projection_recovery_grid():
    t0 = time.perf_counter()
    gaps, feas = [], []
    for n in (200, 500):
        for k in (5, 10):
            for xi in (0.5, 0.7, 0.9):
                g, fv = projection_cell(n, k, xi)
                gaps.append(g)
                feas.append(fv)
    elapsed = time.perf_counter() - t0
    gaps = np.concatenate(gaps)
    feas = np.concatenate(feas)
    frac = float((gaps <= 1e-10).mean())
    ok = (frac >= 0.95 and (feas <= 1e-12).all() and elapsed <= 120.0)
    assert verdict(ok, "projection-recovery",
                   f"{(gaps <= 1e-10).sum()}/{gaps.size} runs at gap<=1e-10 "
                   f"({100 * frac:.1f}%), feasibility max {feas.max():.1e}, "
                   f"{elapsed:.1f}s (budget 120s)")


def test_projection_heavy_noise_cells():
    ok = True
    worst = 0.0
    fmax = 0.0
    for n in (200, 500):
        for k in (5, 10):
            for xi in (0.98, 1.0):
                g, fv = projection_cell(n, k, xi)
                mean_gap = float(g.mean())
                worst = max(worst, mean_gap)
                fmax = max(fmax, float(fv.max()))
                ok = ok and mean_gap <= 5e-3 and (fv <= 1e-12).all()
    assert verdict(ok, "projection-heavy-noise",
                   f"worst cell-mean gap {worst:.2e} (gate 5e-3), "
                   f"feasibility max {fmax:.1e}")


# --------------------------------------------------------------------------
# 2 + 3. rounding error bound and the defect lower bound, on one corpus


COMBOS = [(5, 2), (8, 3), (12, 4), (6, 2), (10, 5), (20, 7), (30, 3),
          (50, 10)]
QS = [0.5, 1.0, 1.5, 2.0, 3.0]


def draw_corpus():
    """1000 nonnegative unit-column draws per run: generic orthant points,
    exactly feasible points, and near-feasible blends with a 1e-6 overlap
    between two columns."""
    out = []
    for ci, (n, k) in enumerate(COMBOS):
        for qi, q in enumerate(QS):
            rng = oracles.rng_for(7000 + 10 * ci + qi)
            for d in range(25):
                if d % 5 == 4:
                    X = oracles.random_feasible(rng, n, k)
                elif d % 5 == 3:
                    X = np.array(oracles.random_feasible(rng, n, k))
                    b = X[:, 0] + 1e-6 * X[:, 1]
                    X[:, 0] = b / np.linalg.norm(b)
                else:
                    X = oracles.random_unit_columns(rng, n, k)
                out.append((X, q, n, k))
    return out


def test_rounding_error_bound():
    violations = 0
    worst_margin = -np.inf
    corpus = draw_corpus()
    for X, q, n, k in corpus:
        ctx = make_context(n, k)
        lhs = float(np.linalg.norm(round_point(X) - X))
        rhs = rho_q(ctx, q) * np.sqrt(max(zeta(X, ctx, q=q), 0.0))
        if lhs > rhs + 1e-12:
            violations += 1
        worst_margin = max(worst_margin, lhs - rhs)
    assert verdict(violations == 0, "rounding-error-bound",
                   f"{len(corpus)} draws, {violations} violations, "
                   f"worst lhs-rhs {worst_margin:.2e}")


def test_defect_lower_bound_and_orthogonality():
    corpus = draw_corpus()
    below = 0
    mismatches = 0
    n_eq = 0
    for X, _, n, k in corpus:
        ctx = make_context(n, k)
        s = float(np.linalg.norm(X @ ctx.V))
        if s < 1.0 - 1e-12:
            below += 1
        gram = X.T @ X
        off = float(np.abs(gram - np.diag(np.diag(gram))).max())
        equality = s - 1.0 <= 1e-12
        orthogonal = off <= 1e-8
        if equality != orthogonal:
            mismatches += 1
        n_eq += equality
    ok = below == 0 and mismatches == 0 and 0 < n_eq < len(corpus)
    assert verdict(ok, "defect-lower-bound",
                   f"{len(corpus)} draws, {below} below 1-1e-12, "
                   f"{mismatches} equality<->orthogonality mismatches, "
                   f"{n_eq} equality cases")


# --------------------------------------------------------------------------
# 4. derivative oracles against finite differences


def test_derivative_oracles():
    sweep = [(1.0, 2.0, 0.0), (1.0, 1.0, 0.0), (1.0, 4.0, 0.0),
             (0.5, 2.0, 0.1), (0.5, 1.0, 0.1), (2.0, 2.0, 0.0)]
    bad_g = bad_h = 0
    worst_g = worst_h = 0.0
    for t in range(200):
        p, q, eps = sweep[t % len(sweep)]
        rng = oracles.rng_for(3000 + t)
        n, k = [(5, 2), (7, 3), (9, 4)][t % 3]
        ctx = make_context(n, k)
        X = oracles.random_unit_columns(rng, n, k, strictly_positive=True)
        A = rng.standard_normal((n, k))
        f = LinearObjective(A)
        params = PenaltyParams(sigma=0.7 + 0.1 * (t % 5), p=p, q=q, eps=eps)
        h = PenalizedObjective(f, ctx, params)

        D = oracles.random_tangent(rng, X)
        G = h.grad(X)
        lhs = float(np.tensordot(riemannian_grad(X, G), D))
        rhs = oracles.fd_directional(h.value, X, D)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-10)
        worst_g = max(worst_g, rel)
        bad_g += rel > 1e-6

        H = riemannian_hess_apply(X, G, h.hess_apply(X, D), D)
        lhs2 = float(np.tensordot(D, H))
        rhs2 = oracles.fd_second(h.value, X, D)
        rel2 = abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2), 1e-10)
        worst_h = max(worst_h, rel2)
        bad_h += rel2 > 1e-5
    ok = bad_g == 0 and bad_h == 0
    assert verdict(ok, "derivative-oracles",
                   f"200 trials, grad fails {bad_g} (worst {worst_g:.1e}), "
                   f"hess fails {bad_h} (worst {worst_h:.1e})")


# --------------------------------------------------------------------------
# 5. constructed stationarity fixture


def test_constructed_stationarity_fixture():
    s3 = np.sqrt(3.0) / 2.0
    C = np.array([[-1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])
    X_sigma2 = np.array([[0.5, 0.5], [s3, 0.0], [0.0, s3]])
    X_limit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ctx = make_context(3, 2)
    h = PenalizedObjective(LinearObjective(C), ctx,
                           PenaltyParams(sigma=2.0, p=1.0, q=2.0, eps=0.0))
    res = stationarity_residual(X_sigma2, h.grad(X_sigma2))
    rep = check_stationarity_original(X_limit, LinearObjective(C))
    ok = res <= 1e-12 and rep.classification == "weakly-stationary"
    assert verdict(ok, "stationarity-fixture",
                   f"kkt residual {res:.2e} at sigma=2, limit point is "
                   f"{rep.classification} (sign violation "
                   f"{rep.sign_violation:.2f})")


# --------------------------------------------------------------------------
# 6. orthogonal NMF synthetic


def test_onmf_synthetic():
    feas_max = 0.0
    resi_max = 0.0
    for seed in range(3):
        inst = gen_onmf(200, 600, 5, 0.0, seed=seed)
        rep = solve_onmf(inst.A, 5)
        feas_max = max(feas_max, rep.feasibility)
        resi_max = max(resi_max, rep.extra["resi"])
    ok = feas_max <= 1e-12 and resi_max <= 1e-8
    assert verdict(ok, "onmf-clean",
                   f"3 seeds at xi=0: residual max {resi_max:.2e}, "
                   f"feasibility max {feas_max:.1e}")
    # noisy instances: solver-independent lower bound comparison is a soft
    # gate, logged for inspection only
    for xi in (0.01, 0.1):
        for seed in range(2):
            inst = gen_onmf(200, 600, 5, xi, seed=seed)
            rep = solve_onmf(inst.A, 5)
            lb = float(np.linalg.norm(inst.A - inst.B @ inst.B.T @ inst.A))
            ratio = rep.extra["resi"] / lb
            tag = "within" if ratio <= 4.0 else "OUTSIDE"
            print(f"[SOFT] onmf-noisy xi={xi} seed={seed}: resi "
                  f"{rep.extra['resi']:.2e}, bound {lb:.2e}, ratio "
                  f"{ratio:.2f} ({tag} factor 4)")
            assert rep.feasibility <= 1e-12  # feasibility stays hard


# --------------------------------------------------------------------------
# 7. subsolver contracts


def test_subsolver_contracts():
    # trial screening and per-outer descent, audited from run reports
    all_trials = []
    all_outers = []
    for seed, solver in [(201, "newton"), (202, "newton"),
                         (203, "gp-fixed"), (204, "gp")]:
        rng = oracles.rng_for(seed)
        inst = gen_projection(12, 3, 0.7, seed=seed)
        ctx = make_context(12, 3)
        cfg = DriverConfig(sigma0=1e-2, gamma2=5.0, tol_feas=1e-8, t_max=60,
                           force_solver=solver, max_inner=200,
                           fixed_alpha=0.2)
        X0 = make_oblique(oracles.random_unit_columns(rng, 12, 3))
        rep = ep4orth_solve(TargetDistanceObjective(inst.C), ctx, cfg, X0=X0,
                            X_feas=feasible_init(ctx, hint=inst.C))
        all_outers.extend(rep.history)
        for h in rep.history:
            all_trials.extend(h["trials"])
    for t in range(5):
        rng = oracles.rng_for(9100 + t)
        n, k = (6, 2) if t % 2 else (5, 3)
        ctx = make_context(n, k)
        h = PenalizedObjective(LinearObjective(rng.standard_normal((n, k))),
                               ctx, PenaltyParams(sigma=1.0, p=1.0, q=2.0,
                                                  eps=0.0))
        X0 = make_oblique(oracles.random_unit_columns(rng, n, k))
        _, irep = newton_solve(h, X0, 1e-8, 60)
        all_trials.extend(irep.trials)

    bad_trials = sum(1 for t in all_trials if t["accepted"]
                     and not (t["satisfied"] and t["model"] <= t["bound"]))
    bad_outers = sum(1 for h in all_outers if not h["descent_ok"])
    ok1 = bad_trials == 0 and bad_outers == 0 and len(all_trials) > 0
    assert verdict(ok1, "trial-and-descent-audit",
                   f"{len(all_trials)} trials ({bad_trials} accepted without "
                   f"certified decrease), {len(all_outers)} outer steps "
                   f"({bad_outers} ascents)")

    # semismooth Newton on strongly convex tangent-cone QPs
    res_max = 0.0
    enum_checked = 0
    enum_worst = 0.0
    for t in range(50):
        rng = oracles.rng_for(9000 + t)
        n, k = [(3, 2), (4, 2), (5, 3), (6, 3)][t % 4]
        X = oracles.random_unit_columns(rng, n, k)
        B = rng.standard_normal((n * k, n * k))
        M = B @ B.T / (n * k) + (0.5 + rng.uniform()) * np.eye(n * k)
        g = rng.standard_normal((n, k))

        def hess(W, M=M, n=n, k=k):
            return (M @ W.ravel()).reshape(n, k)

        alpha = 1.0 / (np.linalg.eigvalsh(M)[-1] + 1.0)
        D, info = solve_qp_subproblem(make_oblique(X), g, hess, alpha,
                                      tol=1e-11)
        res_max = max(res_max, info["residual"])
        if n <= 4:
            Do, _ = oracles.qp_enumeration_oracle(X, g, hess)
            enum_worst = max(enum_worst,
                             float(np.abs(D - Do).max()))
            enum_checked += 1
    ok2 = res_max <= 1e-8 and enum_worst <= 1e-8
    assert verdict(ok2, "qp-subproblem",
                   f"50 instances, fixed-point residual max {res_max:.1e}, "
                   f"{enum_checked} enumeration cross-checks, worst entry "
                   f"deviation {enum_worst:.1e}")


# --------------------------------------------------------------------------
# 8. K-indicators clustering


def test_kindicators_recovery():
    inst = gen_kindicators(500, 10, 0.1, seed=0)
    t0 = time.perf_counter()
    rep = kindicators_solve(inst.U)
    elapsed = time.perf_counter() - t0
    m = clustering_metrics(rep.extra["labels"], inst.labels)
    dev = rep.extra["max_iterate_dev"]
    ok = (m["purity"] >= 0.95 and m["nmi"] >= 0.9 and dev <= 1e-12
          and elapsed <= 10.0)
    assert verdict(ok, "kindicators",
                   f"purity {m['purity']:.3f}, NMI {m['nmi']:.3f}, iterate "
                   f"deviation {dev:.1e}, {elapsed:.2f}s (budget 10s)")


# --------------------------------------------------------------------------
# 9. planted-solution optimality certificate


def test_planted_solution_certificate():
    violations = 0
    total = 0
    for xi, seed in [(0.5, 0), (0.9, 1)]:
        inst = gen_projection(30, 3, xi, seed=seed)
        vstar = float(np.tensordot(inst.C, inst.X_star))
        rng = oracles.rng_for(500 + seed)
        for _ in range(1000):
            Y = oracles.random_feasible(rng, 30, 3)
            total += 1
            if float(np.tensordot(inst.C, Y)) >= vstar:
                violations += 1
    inst = gen_projection(3, 2, 0.5, seed=7)
    cands = oracles.linear_max_enumeration(inst.C, 2)
    v0 = cands[0][0]
    top = [X for v, X in cands if v >= v0 - 1e-12]
    unique = all(np.allclose(X, top[0], atol=1e-10) for X in top)
    matches = np.allclose(top[0], inst.X_star, atol=1e-10)
    ok = violations == 0 and unique and matches
    assert verdict(ok, "planted-certificate",
                   f"{total} random feasible points, {violations} at or "
                   f"above the planted value; enumeration maximizer unique "
                   f"({len(top)} top patterns) and equal to the plant")


# --------------------------------------------------------------------------
# 10. sharpness order witness


def test_sharpness_order_witness():
    def point(eps):
        return np.array([
            [np.sqrt(1.0 - eps * eps - 2.0 * eps), eps],
            [eps, np.sqrt(1.0 - eps * eps - eps)],
            [np.sqrt(2.0 * eps), np.sqrt(eps)],
        ])

    def closest(eps):
        s = np.sqrt(1.0 - eps * eps)
        return np.array([
            [np.sqrt(1.0 - eps * eps - 2.0 * eps) / s, 0.0],
            [0.0, 1.0],
            [np.sqrt(2.0 * eps) / s, 0.0],
        ])

    ctx = make_context(3, 2)
    ok = True
    ratios = []
    for eps in (1e-2, 1e-4, 1e-6):
        X = point(eps)
        dist = float(np.linalg.norm(closest(eps) - X))
        ratio = dist / np.sqrt(zeta(X, ctx))
        ratios.append(ratio)
        ok = ok and 0.3 <= ratio <= 3.5
        ok = ok and np.allclose(round_point(X), closest(eps),
                                atol=1e-12)
    assert verdict(ok, "sharpness-witness",
                   "dist/sqrt(defect) = "
                   + ", ".join(f"{r:.4f}" for r in ratios)
                   + " at eps = 1e-2, 1e-4, 1e-6 (window [0.3, 3.5])")
