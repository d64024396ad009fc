"""Trapezoidal reference solver: accuracy, order, failure handling."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsrk.reference as reference_mod
from tsrk.problems import IvpProblem, burgers
from tsrk.reference import (
    NEWTON_TOL,
    ReferenceSolverError,
    _trap_step,
    reference_integrate,
    richardson_validate,
)


def scalar_decay(lam=-1.0, t_out=1.0):
    return IvpProblem(
        name="decay", dim=1,
        rhs=lambda t, y: lam * y,
        jac=lambda t, y: np.array([[lam]]),
        t0=0.0, y0=np.array([1.0]), t_out=t_out,
    )


def prothero_robinson(lam=-1e4):
    # y' = lam (y - sin t) + cos t, y(0) = 0; exact solution sin t.
    return IvpProblem(
        name="pr", dim=1,
        rhs=lambda t, y: lam * (y - math.sin(t)) + math.cos(t),
        jac=lambda t, y: np.array([[lam]]),
        t0=0.0, y0=np.array([0.0]), t_out=1.0,
    )


def rober_raw():
    def rhs(t, y):
        r1, r2, r3 = 0.04 * y[0], 1e4 * y[1] * y[2], 3e7 * y[1] ** 2
        return np.array([-r1 + r2, r1 - r2 - r3, r3])

    def jac(t, y):
        return np.array([
            [-0.04, 1e4 * y[2], 1e4 * y[1]],
            [0.04, -1e4 * y[2] - 6e7 * y[1], -1e4 * y[1]],
            [0.0, 6e7 * y[1], 0.0],
        ])

    return IvpProblem(name="rober0", dim=3, rhs=rhs, jac=jac,
                      t0=0.0, y0=np.array([1.0, 0.0, 0.0]), t_out=1000.0)


def test_exponential_endpoint():
    y = reference_integrate(scalar_decay(), 0.0, 1.0, 10_000)
    assert y[0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_prothero_robinson_tracks_exact_solution():
    y = reference_integrate(prothero_robinson(), 0.0, 1.0, 1000)
    assert y[0] == pytest.approx(math.sin(1.0), abs=1e-6)


def test_prothero_robinson_observed_order():
    prob = prothero_robinson()
    errs = []
    for steps in (250, 500, 1000):
        y = reference_integrate(prob, 0.0, 1.0, steps)
        errs.append(abs(y[0] - math.sin(1.0)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.9 <= p <= 2.1 for p in orders), orders


def test_finite_difference_jacobian_path():
    prob = scalar_decay()
    bare = IvpProblem(name="nojac", dim=1, rhs=prob.rhs, t0=0.0,
                      y0=np.array([1.0]), t_out=1.0)
    y = reference_integrate(bare, 0.0, 1.0, 2000)
    assert y[0] == pytest.approx(math.exp(-1.0), abs=1e-7)


def counted_lu_factor(monkeypatch):
    """Patch a call counter onto the reference solver's one factorization."""
    calls = []
    original = reference_mod.lu_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(reference_mod, "lu_factor", counted)
    return calls


def test_rober_conservation_and_positivity(monkeypatch):
    # Simplified Newton keeps the matrix while Newton converges within
    # KEEP_MAX_ITER iterations: most of the 10 000 steps reuse one.
    calls = counted_lu_factor(monkeypatch)
    y = reference_integrate(rober_raw(), 0.0, 1000.0, 10_000)
    assert np.all(y > 0.0)
    assert float(np.sum(y)) == pytest.approx(1.0, abs=1e-8)
    assert len(calls) < 2000


def test_matrix_slow_to_converge_is_not_kept(monkeypatch):
    # Dense Burgers(40): every fresh step takes 4 > KEEP_MAX_ITER Newton
    # iterations, so no matrix is kept and each step factors its own,
    # without first spending iterations on the previous step's matrix.
    prob = burgers(40)
    assert prob.jac_bands == (1, 1)

    def dense_jac(t, y):
        ab = prob.jac(t, y)  # rows: superdiagonal, diagonal, subdiagonal
        return np.diag(ab[0, 1:], 1) + np.diag(ab[1]) + np.diag(ab[2, :-1], -1)

    dense = dataclasses.replace(prob, jac_bands=None, jac=dense_jac)
    calls = counted_lu_factor(monkeypatch)
    iters = []
    original = reference_mod._trap_step

    def logged(*args):
        y, report = original(*args)
        iters.append(report.newton_iters)
        return y, report

    monkeypatch.setattr(reference_mod, "_trap_step", logged)
    reference_integrate(dense, 0.0, 2.5, 100)
    assert len(calls) == 100
    assert iters == [4] * 100


def test_starting_elsewhere_requires_state():
    with pytest.raises(ValueError):
        reference_integrate(scalar_decay(), 0.5, 1.0, 10)
    y_half = reference_integrate(scalar_decay(), 0.0, 0.5, 2000)
    y_full = reference_integrate(scalar_decay(), 0.5, 1.0, 2000, y_from=y_half)
    assert y_full[0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_parameter_validation():
    with pytest.raises(ValueError):
        reference_integrate(scalar_decay(), 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        reference_integrate(scalar_decay(), 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        richardson_validate(scalar_decay(), 0.0, 1.0, 1)


def test_richardson_estimate_shrinks_by_four():
    prob = scalar_decay()
    est1 = richardson_validate(prob, 0.0, 1.0, 100)
    est2 = richardson_validate(prob, 0.0, 1.0, 200)
    assert est1 / est2 == pytest.approx(4.0, rel=0.15)


def test_richardson_bounds_true_error():
    prob = scalar_decay()
    est = richardson_validate(prob, 0.0, 1.0, 400)
    y = reference_integrate(prob, 0.0, 1.0, 800)
    true_err = abs(y[0] - math.exp(-1.0))
    assert true_err <= 4.0 * est


def test_newton_failure_raises_with_report():
    bad = IvpProblem(
        name="bad", dim=1,
        rhs=lambda t, y: np.array([float("nan")]),
        jac=lambda t, y: np.array([[0.0]]),
        t0=0.0, y0=np.array([1.0]), t_out=1.0,
    )
    with pytest.raises(ReferenceSolverError) as err:
        reference_integrate(bad, 0.0, 1.0, 1)
    assert not err.value.report.converged
    # The first residual is already NaN: one iteration, not the budget.
    assert err.value.report.newton_iters == 1


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       h=st.floats(1e-3, 1.0))
def test_banded_step_equals_dense_on_tridiagonal_linear_systems(n, seed, h):
    # y' = A y with A tridiagonal, stable and row-diagonally dominant, so
    # M = I - (h/2) A has ||M^-1||_inf <= 1.  Each step stops once its
    # residual M z - r is below NEWTON_TOL, so each result is within
    # NEWTON_TOL (plus the rounding of that residual) of the exact step.
    rng = np.random.default_rng(seed)
    sub, sup = rng.uniform(-50.0, 50.0, (2, n - 1))
    diag = -rng.uniform(0.0, 50.0, n)
    diag[1:] -= np.abs(sub)
    diag[:-1] -= np.abs(sup)
    a = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    y = rng.uniform(-1.0, 1.0, n)

    def rhs(t, v):
        return a @ v

    y_dense, rep_dense = _trap_step(rhs, lambda t, v: a, 0.0, y, h)
    y_band, rep_band = _trap_step(rhs, lambda t, v: ab, 0.0, y, h, (1, 1))
    assert rep_dense.converged and rep_band.converged
    assert np.max(np.abs(y_band - y_dense)) <= 3 * NEWTON_TOL
