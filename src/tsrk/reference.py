"""High-accuracy reference integration: implicit trapezoidal rule with Newton.

A-stable and symmetric (order 2), which is all the endpoint references and
starting values need.  Each Newton correction solves with I - (h/2) J, J
taken at the start of the step.  A problem that declares its Jacobian
bandwidth (``jac_bands = (l, u)``, the Jacobian then in ``solve_banded``
storage) gets a banded LU solve per correction, O(n (l + u)): the
method-of-lines grids (Burgers, heat1d) are tridiagonal.  Every other problem
factors the dense matrix once per step (LU with partial pivoting), with the
analytic Jacobian when it has one and forward differences otherwise; those
systems are desk-scale.  A step whose Newton iteration fails to converge is
retried on two half steps, recursively up to 10 levels, before giving up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_banded

__all__ = [
    "ImplicitSolveReport",
    "ReferenceSolverError",
    "certified_endpoint",
    "reference_integrate",
    "richardson_validate",
]

# Bump when a change to the algorithm can move results: cached references
# carry it in their keys.
SOLVER_VERSION = 2
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 25
MAX_HALVINGS = 10


@dataclass(frozen=True)
class ImplicitSolveReport:
    converged: bool
    newton_iters: int
    final_residual: float


class ReferenceSolverError(RuntimeError):
    """Newton failed even after local step halving."""

    def __init__(self, message: str, report: ImplicitSolveReport):
        super().__init__(message)
        self.report = report


def _fd_jacobian(rhs, t, y, f0):
    """Forward differences, column perturbation sqrt(eps_mach)*max(|y_i|, 1)."""
    n = y.size
    jac = np.empty((n, n))
    pert = math.sqrt(np.finfo(float).eps)
    for j in range(n):
        d = pert * max(abs(y[j]), 1.0)
        yp = y.copy()
        yp[j] += d
        jac[:, j] = (rhs(t, yp) - f0) / d
    return jac


def _trap_step(rhs, jac_fn, t, y, h, bands=None):
    """One trapezoidal step; returns (y_new, report).

    With ``bands = (l, u)`` the Jacobian comes in banded storage and each
    Newton correction is a banded solve; otherwise the dense Newton matrix
    is factored once for the step.

    A diverging iterate may push the right-hand side out of range; that is
    an expected signal (it triggers the halving retry), so overflow warnings
    are silenced here rather than leaking to the caller.
    """
    f0 = rhs(t, y)
    if bands is not None:
        ab = (-0.5 * h) * jac_fn(t, y)
        ab[bands[1]] += 1.0  # row u of the storage is the main diagonal
    else:
        jac = jac_fn(t, y) if jac_fn is not None else _fd_jacobian(rhs, t, y, f0)
        lu = lu_factor(np.eye(y.size) - 0.5 * h * jac)

    z = y + h * f0  # explicit Euler predictor
    resid = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, NEWTON_MAX_ITER + 1):
            g = z - y - 0.5 * h * (f0 + rhs(t + h, z))
            resid = float(np.max(np.abs(g)))
            if not math.isfinite(resid):
                break
            if resid <= NEWTON_TOL:
                return z, ImplicitSolveReport(True, it, resid)
            if bands is None:
                z = z - lu_solve(lu, g)
            else:
                z = z - solve_banded(bands, ab, g)
    return z, ImplicitSolveReport(False, NEWTON_MAX_ITER, resid)


def _advance(rhs, jac_fn, bands, t, y, h, depth):
    y_new, report = _trap_step(rhs, jac_fn, t, y, h, bands)
    if report.converged:
        return y_new
    if depth >= MAX_HALVINGS:
        raise ReferenceSolverError(
            f"trapezoidal Newton failed at t={t} with h={h} after "
            f"{MAX_HALVINGS} halvings (residual {report.final_residual:.3e})",
            report,
        )
    y_mid = _advance(rhs, jac_fn, bands, t, y, h / 2.0, depth + 1)
    return _advance(rhs, jac_fn, bands, t + h / 2.0, y_mid, h / 2.0, depth + 1)


def reference_integrate(problem, t_from: float, t_to: float, steps: int,
                        y_from: np.ndarray | None = None) -> np.ndarray:
    """Endpoint state of ``problem`` integrated from t_from to t_to.

    Starts from ``y_from`` when given, otherwise from the problem's initial
    state (which then must sit at t_from).  Uses ``steps`` equal trapezoidal
    steps; the problem's analytic Jacobian is used when it has one, banded
    when the problem declares ``jac_bands``.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not t_to > t_from:
        raise ValueError(f"need t_to > t_from, got [{t_from}, {t_to}]")
    if y_from is None:
        if problem.t0 != t_from:
            raise ValueError(
                f"no start state given and problem starts at t0={problem.t0}, "
                f"not {t_from}"
            )
        y_from = problem.y0
    y = np.array(y_from, dtype=float)
    rhs = problem.rhs
    jac_fn = getattr(problem, "jac", None)
    bands = getattr(problem, "jac_bands", None)
    h = (t_to - t_from) / steps
    for k in range(steps):
        y = _advance(rhs, jac_fn, bands, t_from + k * h, y, h, depth=0)
    return y


def certified_endpoint(problem, schedule, y_from: np.ndarray | None = None):
    """(fine endpoint, gap) of a schedule of ``(t_from, t_to, steps)`` segments.

    The segments run one after the other from ``y_from`` (the problem's
    initial state when None), once as given and once with every step count
    doubled.  The gap is the max-norm difference of the two endpoints; gap / 3
    estimates the error of the doubled (fine) run, the order-2 Richardson
    estimate.
    """
    ends = []
    for factor in (1, 2):
        y = y_from
        for t_from, t_to, steps in schedule:
            y = reference_integrate(problem, t_from, t_to, factor * steps, y_from=y)
        ends.append(y)
    base, fine = ends
    return fine, float(np.max(np.abs(base - fine)))


def richardson_validate(problem, t_from: float, t_to: float, steps: int,
                        y_from: np.ndarray | None = None) -> float:
    """Order-2 Richardson estimate of the reference endpoint error.

    Runs with ``steps`` and ``2 * steps`` and returns the max-norm endpoint
    difference divided by 3, an estimate of the error of the finer run.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2 for validation, got {steps}")
    return certified_endpoint(problem, ((t_from, t_to, steps),), y_from)[1] / 3.0
