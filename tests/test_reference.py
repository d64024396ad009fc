"""Reference solvers (trapezoidal and Radau IIA): accuracy, order, failures."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsrk.reference as reference_mod
from tsrk.cli import main
from tsrk.problems import PROBLEMS, IvpProblem, burgers
from tsrk.reference import (
    NEWTON_TOL,
    ReferenceSolverError,
    _KeptMatrix,
    _radau_step,
    _trap_step,
    certified_endpoint,
    reference_integrate,
    richardson_validate,
)


def scalar_decay(lam=-1.0, t_out=1.0, y0=1.0):
    return IvpProblem(
        name="decay",
        rhs=lambda t, y: lam * y,
        jac=lambda t, y: np.array([[lam]]),
        t0=0.0, y0=np.array([y0]), t_out=t_out,
    )


def prothero_robinson(lam=-1e4):
    # y' = lam (y - sin t) + cos t, y(0) = 0; exact solution sin t.
    return IvpProblem(
        name="pr",
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

    return IvpProblem(name="rober0", rhs=rhs, jac=jac,
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
    bare = IvpProblem(name="nojac", rhs=prob.rhs, t0=0.0,
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
        name="bad",
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


def test_a_step_always_takes_one_correction():
    # y' = const: the trapezoid's Euler predictor and Radau's first
    # correction are exact, yet each is accepted only on the next iteration.
    slope = np.array([-1.0, 0.5, 2.0])

    def rhs(t, y):
        return slope.copy()

    def jac(t, y):
        return np.zeros((3, 3))

    y = np.array([1.0, -2.0, 0.5])
    _, trap = _trap_step(rhs, jac, 0.0, y, 0.25)
    _, radau = _radau_step(rhs, jac, 0.0, y, 0.25, _KeptMatrix())
    assert trap.converged and trap.newton_iters == 2
    assert radau.converged and radau.newton_iters == 2


def blowing_up():
    """y' = y^2, y(0) = 1: the solution blows up at t = 1."""
    return IvpProblem(name="blowup", rhs=lambda t, y: y * y,
                      jac=lambda t, y: np.array([[2.0 * y[0]]]),
                      t0=0.0, y0=np.array([1.0]), t_out=2.0)


@pytest.mark.parametrize("method, solve", [
    ("trapezoidal", lambda p: reference_integrate(p, 0.0, 2.0, 64)),
    ("radau5", lambda p: certified_endpoint(p, ((0.0, 2.0, 64),))),
])
def test_failure_names_its_method_and_step(monkeypatch, method, solve):
    monkeypatch.setattr(reference_mod, "MAX_HALVINGS", 2)
    with pytest.raises(ReferenceSolverError) as err:
        solve(blowing_up())
    exc = err.value
    assert exc.method == method and str(exc).startswith(f"{method} Newton failed")
    assert exc.h == 2.0 / 64 / 4  # two halvings of the schedule's step
    assert 0.9 < exc.t < 1.0 and f"t={exc.t}" in str(exc)
    assert not exc.report.converged


def test_failure_is_a_numerical_failure_of_the_cli(monkeypatch, tmp_path, capsys):
    # The starter's trapezoidal steps cannot cross the blow-up.
    monkeypatch.setattr(reference_mod, "MAX_HALVINGS", 2)
    monkeypatch.setitem(PROBLEMS, "blowup", blowing_up)
    code = main(["run", "--problem", "blowup", "--h", "2.0", "--s", "5",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 3
    assert "numerical failure: trapezoidal Newton failed" in capsys.readouterr().err


def pade_2_3(z):
    """R(z) of 3-stage Radau IIA, the (2, 3) Pade approximant of exp."""
    return (1 + 2 * z / 5 + z**2 / 20) / (1 - 3 * z / 5 + 3 * z**2 / 20 - z**3 / 60)


# The tolerance is NEWTON_TOL * max(1, |y|) and the residual's rounding
# floor is about |z| eps |y|, so the states are scaled to 1e-6 to reach
# z = -1e6.
@pytest.mark.parametrize("z", [-1e6, -3e4, -500.0, -20.0, -1.0, -0.1])
def test_radau_step_is_the_pade_approximant_on_real_z(z):
    y = np.array([1e-6])
    y1, report = _radau_step(lambda t, v: z * v, lambda t, v: np.array([[z]]),
                             0.0, y, 1.0, _KeptMatrix())
    assert report.converged
    assert abs(y1[0] - pade_2_3(z) * y[0]) <= 10 * np.finfo(float).eps * y[0]


@pytest.mark.parametrize("z", [complex(-0.1, 2.0), complex(-1.0, 10.0),
                               complex(-100.0, 50.0), complex(-1e4, 3e4),
                               complex(-1e6, 1e5)])
def test_radau_step_is_the_pade_approximant_on_complex_z(z):
    # y' = z y as a real system on (Re y, Im y).
    m = np.array([[z.real, -z.imag], [z.imag, z.real]])
    y = np.array([1e-6, 5e-7])
    y1, report = _radau_step(lambda t, v: m @ v, lambda t, v: m, 0.0, y, 1.0,
                             _KeptMatrix())
    assert report.converged
    exact = pade_2_3(z) * complex(*y)
    assert abs(complex(*y1) - exact) <= 10 * np.finfo(float).eps * abs(complex(*y))


# The residual's rounding floor grows with the state, so the tolerance does
# too.  With an absolute 1e-12, the trapezoid gave up on y' = -y from 1e5
# after MAX_HALVINGS halvings (residual 5.7e-12), and Radau IIA halved every
# step of y' = -1e4 y from 1e5.  ``fine`` is the step count of the returned
# run: certified_endpoint runs 10 steps, then 20, and returns the finer.
@pytest.mark.parametrize("method, lam, solve, calls, fine, amplification", [
    ("_trap_step", -1.0, lambda p: reference_integrate(p, 0.0, 1.0, 10), 10, 10,
     lambda z: (1 + z / 2) / (1 - z / 2)),
    ("_radau_step", -1e4, lambda p: certified_endpoint(p, ((0.0, 1.0, 10),))[0],
     10 + 20, 20, pade_2_3),
], ids=["trapezoidal", "radau5"])
def test_large_states_certify_without_halving(monkeypatch, method, lam, solve,
                                              calls, fine, amplification):
    steps = []
    original = getattr(reference_mod, method)

    def counted(*args):
        steps.append(1)
        return original(*args)

    monkeypatch.setattr(reference_mod, method, counted)
    y = solve(scalar_decay(lam, y0=1e5))
    assert len(steps) == calls
    assert y[0] == pytest.approx(1e5 * amplification(lam / fine) ** fine, rel=1e-12)


def sine_tracker(with_jac=True):
    """y' = y^2 - sin^2 t + cos t, y(0) = 0: nonlinear, exact solution sin t."""
    return IvpProblem(
        name="sine", rhs=lambda t, y: y * y - math.sin(t) ** 2 + math.cos(t),
        jac=(lambda t, y: np.array([[2.0 * y[0]]])) if with_jac else None,
        t0=0.0, y0=np.array([0.0]), t_out=1.0)


def test_radau_is_order_five():
    # Each halving divides the endpoint error by about 2^5 = 32.
    prob = sine_tracker()
    errs = [abs(certified_endpoint(prob, ((0.0, 1.0, steps),))[0][0] - math.sin(1.0))
            for steps in (2, 4, 8)]  # fine runs: 4, 8 and 16 steps
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert all(24.0 <= r <= 40.0 for r in ratios), ratios


def test_problem_without_jacobian_certifies_by_finite_differences(monkeypatch):
    calls = []
    original = reference_mod._fd_jacobian

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(reference_mod, "_fd_jacobian", counted)
    schedule = ((0.0, 1.0, 8),)
    y, gap = certified_endpoint(sine_tracker(with_jac=False), schedule)
    assert calls
    y_jac, _ = certified_endpoint(sine_tracker(), schedule)
    assert gap < 1e-8
    assert abs(y[0] - math.sin(1.0)) <= gap
    assert abs(y[0] - y_jac[0]) <= 1e-12
