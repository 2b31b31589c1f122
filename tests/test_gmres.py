"""The Krylov kernel of the semismooth Newton step.

subsolvers.gmres performs scipy's restarted GMRES operation for operation
until a restart cycle stalls, and subsolvers._lartg is LAPACK's dlartg, so
both are compared with scipy bit for bit: the solution's bytes and the info
code, and each rotation's (c, s, r). scipy is a test dependency only.
"""
import struct

import numpy as np
import pytest
import scipy.sparse.linalg as scipy_linalg
from scipy.linalg import lapack

from penorth import subsolvers
from penorth.problems import gen_onmf, solve_onmf
from penorth.subsolvers import _lartg, gmres

import oracles


class Dense:
    """A matrix as the operator gmres expects; counts its products."""

    def __init__(self, M):
        self.M = M
        self.products = 0

    def _matvec(self, x):
        self.products += 1
        return self.M @ x


def scipy_gmres(A, b, rtol, maxiter):
    n = len(b)
    op = scipy_linalg.LinearOperator((n, n), matvec=A._matvec, dtype=float)
    return scipy_linalg.gmres(op, b, rtol=rtol, atol=0.0, maxiter=maxiter)


def assert_same_as_scipy(M, b, rtol, maxiter):
    """gmres's (x, info, number of products) on the matrix M, after
    checking x and info against scipy's."""
    A = Dense(M)
    x, info = gmres(A, b, rtol=rtol, maxiter=maxiter)
    x_ref, info_ref = scipy_gmres(Dense(M), b, rtol, maxiter)
    assert info == info_ref
    assert x.dtype == x_ref.dtype and x.shape == x_ref.shape
    assert x.tobytes() == x_ref.tobytes()
    return x, info, A.products


def nonsymmetric(rng, n, shift=2.0, spread=1.0):
    return shift * np.eye(n) + spread * rng.standard_normal((n, n)) / np.sqrt(n)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 21, 300])
@pytest.mark.parametrize("rtol", [1e-1, 1e-8])
def test_gmres_matches_scipy_on_random_systems(n, rtol):
    rng = oracles.rng_for(900 + n)
    for _ in range(3):
        M = nonsymmetric(rng, n)
        b = rng.standard_normal(n)
        x, info, _ = assert_same_as_scipy(M, b, rtol, 200)
        assert info == 0
        assert np.linalg.norm(b - M @ x) <= rtol * np.linalg.norm(b)


def test_gmres_matches_scipy_over_several_restart_cycles():
    # eigenvalues fill a disk of radius about 1 around 1.1, close to the
    # origin: GMRES(20) needs several restart cycles
    rng = oracles.rng_for(910)
    n = 80
    M = nonsymmetric(rng, n, shift=1.1, spread=1.0)
    b = rng.standard_normal(n)
    x, info, products = assert_same_as_scipy(M, b, 1e-10, 200)
    assert info == 0
    assert products > 3 * (subsolvers.GMRES_RESTART + 1)


@pytest.mark.parametrize("case", ["identity", "low-rank-plus-identity"])
def test_gmres_matches_scipy_at_exact_breakdown(case):
    rng = oracles.rng_for(920)
    n = 12
    M = np.eye(n)
    if case == "low-rank-plus-identity":
        U = rng.standard_normal((n, 2))
        M = M + U @ rng.standard_normal((2, n))
    b = rng.standard_normal(n)
    x, info, products = assert_same_as_scipy(M, b, 1e-12, 50)
    assert info == 0
    # the Krylov space is invariant after 1 (identity) or 3 products, and
    # one more product checks the true residual
    assert products == (2 if case == "identity" else 4)


@pytest.mark.parametrize("maxiter", [1, 2])
def test_gmres_matches_scipy_when_maxiter_runs_out(maxiter):
    rng = oracles.rng_for(930)
    n = 60
    M = nonsymmetric(rng, n, shift=0.1, spread=1.0)
    b = rng.standard_normal(n)
    x, info, _ = assert_same_as_scipy(M, b, 1e-14, maxiter)
    assert info == maxiter


def test_gmres_fails_after_the_cycle_that_stalls():
    # M is singular and b has a part outside its range. The first cycle
    # removes everything else (20 distinct nonzero eigenvalues, one Krylov
    # vector each) and the second cannot lower the residual, so the call
    # fails there instead of running all 200 cycles
    n, m = 30, subsolvers.GMRES_RESTART
    d = np.zeros(n)
    d[:m] = np.linspace(1.0, 3.0, m)
    b = oracles.rng_for(950).standard_normal(n)
    b[m:] *= 0.1
    A = Dense(np.diag(d))
    x, info = gmres(A, b, rtol=1e-8, maxiter=200)
    assert info == 200
    assert A.products == 2 * (m + 1)  # two cycles, each checked once
    outside = np.linalg.norm(b[m:])
    assert outside <= 0.1 * np.linalg.norm(b)
    assert np.linalg.norm(b - d * x) == pytest.approx(outside, rel=1e-10)


def test_gmres_zero_rhs_and_loose_tolerance():
    M = nonsymmetric(oracles.rng_for(940), 7)
    b = np.zeros(7)
    x, info, _ = assert_same_as_scipy(M, b, 1e-8, 200)
    assert info == 0 and not x.any()
    # rtol > 1: x = 0 already meets the tolerance
    b = np.ones(7)
    x, info, products = assert_same_as_scipy(M, b, 2.0, 200)
    assert info == 0 and not x.any() and products == 0


def test_gmres_matches_scipy_on_ssn_jacobians(monkeypatch):
    # every Krylov solve of a small ONMF solve, replayed through scipy on
    # the same Jacobian operator
    solved = []

    def checked(A, b, rtol, maxiter):
        x, info = gmres(A, b, rtol=rtol, maxiter=maxiter)
        x_ref, info_ref = scipy_gmres(A, b, rtol, maxiter)
        solved.append((info == info_ref, x.tobytes() == x_ref.tobytes()))
        return x, info

    monkeypatch.setattr(subsolvers, "gmres", checked)
    solve_onmf(gen_onmf(20, 10, 3, xi=0.0, seed=13).A, 3, variant="gn")
    assert len(solved) >= 10
    assert all(same_info and same_x for same_info, same_x in solved)


# --------------------------------------------------------------------------
# Givens rotations


def bits(*vals):
    return struct.pack("<%dd" % len(vals), *map(float, vals))


TINY = 2.0 ** -511      # dlartg's rtmin = sqrt(safmin)
HUGE = 2.0 ** 510.5     # about its rtmax = sqrt(safmax / 2)
SUB = 5e-324            # smallest subnormal

LARTG_CASES = [
    (0.0, 0.0), (3.0, 0.0), (-3.0, 0.0), (0.0, 4.0), (0.0, -4.0),
    (3.0, 4.0), (-3.0, 4.0), (3.0, -4.0), (-3.0, -4.0),
    (1e-200, 1.0), (1.0, -1e-200), (1e-160, 3e-170), (-TINY, TINY),
    (1e200, 1.0), (-1.0, 1e300), (1e300, -1e300), (HUGE, 1.0), (1.0, 2 * HUGE),
    (SUB, 1.0), (1.0, SUB), (SUB, -SUB), (-1e-310, 2e-315), (1e-310, 1e300),
    (np.finfo(float).max, np.finfo(float).max), (np.finfo(float).tiny, 1.0),
]


@pytest.mark.parametrize("f, g", LARTG_CASES)
def test_lartg_matches_lapack_on_each_branch(f, g):
    assert bits(*_lartg(f, g)) == bits(*lapack.dlartg(f, g))


def test_lartg_matches_lapack_on_random_pairs():
    rng = oracles.rng_for(950)
    m = 20000
    sign = rng.choice([-1.0, 1.0], size=(2, m))
    mag = 10.0 ** rng.uniform(-8, 8, size=(2, m))
    for f, g in zip(*(sign * mag).tolist()):
        assert bits(*_lartg(f, g)) == bits(*lapack.dlartg(f, g))
