"""High-accuracy reference integration: Radau IIA and the trapezoidal rule.

Two fixed-step implicit methods serve two paths.

* ``certified_endpoint`` integrates every dense problem (``jac_bands`` is
  None: the Van der Pol, Robertson and HIRES windows, and any user problem)
  with the 3-stage Radau IIA method (Hairer & Wanner, Solving ODEs II,
  IV.5): order 5, L-stable and stiffly accurate.  Newton runs on the stage
  increments Z = (z_1, z_2, z_3), Y_i = y + z_i, with the 3n x 3n matrix
  I - h (A kron J).
* ``reference_integrate``, which computes the integrator's starting values,
  and ``certified_endpoint`` on banded problems use the implicit trapezoidal
  rule: A-stable and symmetric, order 2.  Each Newton correction solves with
  I - (h/2) J.  A problem that declares its Jacobian bandwidth
  (``jac_bands = (l, u)``, the Jacobian then in ``solve_banded`` storage)
  gets a banded LU solve per correction, O(n (l + u)), with J taken at the
  start of each step: the method-of-lines grids (Burgers, heat1d) are
  tridiagonal.

Both methods run one Newton loop, ``_newton``.  Each step hands it its
predictor, its residual g(z) and its correction.  A dense step runs
simplified Newton (Hairer & Wanner, IV.8): one integration keeps the inverse
of its Newton matrix, computed from an LU factorization with partial
pivoting, across its steps.  A step first tries the kept inverse for at most
``KEEP_MAX_ITER`` iterations.  When that fails, or the inverse was built for
another h, the Jacobian (analytic when the problem has one, forward
differences otherwise) and the inverse are refreshed at the start of the
step and the step restarts from its predictor with up to
``NEWTON_MAX_ITER`` iterations; the fresh inverse is kept only if that step
converged within ``KEEP_MAX_ITER`` iterations.  A step is accepted only
after at least one correction, with a finite residual at most
``NEWTON_TOL * max(1, ||y||_inf)``, y the step's start state: the residual's
rounding floor grows with the state.  A step that fails with a fresh matrix
is retried on two half steps, recursively up to ``MAX_HALVINGS`` levels,
before giving up.

scipy.linalg is imported at the first factorization or banded solve, not
with the module: designing methods and scanning their stability never solve
a linear system, so ``import tsrk`` and those commands load numpy alone.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ImplicitSolveReport",
    "ReferenceSolverError",
    "certified_endpoint",
    "reference_integrate",
    "richardson_validate",
]

# Bump when a change to the algorithm can move results: ``record_key`` puts
# it, and NEWTON_TOL, in the key of every cached or memoized product.
SOLVER_VERSION = 5
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 25
MAX_HALVINGS = 10
# Newton iterations a step may take on a kept dense matrix; a fresh matrix is
# kept for the next step only if its step converged within as many.
KEEP_MAX_ITER = 3

# Radau IIA, 3 stages: the collocation nodes c and the matrix A, whose last
# row is the weight vector b (stiffly accurate).
_SQRT6 = math.sqrt(6.0)
RADAU_C = np.array([(4.0 - _SQRT6) / 10.0, (4.0 + _SQRT6) / 10.0, 1.0])
RADAU_A = np.array([
    [(88.0 - 7.0 * _SQRT6) / 360.0, (296.0 - 169.0 * _SQRT6) / 1800.0,
     (-2.0 + 3.0 * _SQRT6) / 225.0],
    [(296.0 + 169.0 * _SQRT6) / 1800.0, (88.0 + 7.0 * _SQRT6) / 360.0,
     (-2.0 - 3.0 * _SQRT6) / 225.0],
    [(16.0 - _SQRT6) / 36.0, (16.0 + _SQRT6) / 36.0, 1.0 / 9.0],
])


def _lagrange(nodes, i, x):
    """The Lagrange basis polynomial of ``nodes[i]`` at x."""
    return math.prod((x - node) / (nodes[i] - node)
                     for k, node in enumerate(nodes) if k != i)


# A step of the same h starts Newton from the last step's collocation
# polynomial u, extrapolated: u(0) = 0 and u(c_i) = z_i give the predictor
# z_j = u(1 + c_j) - u(1), that is Z = RADAU_EXTRAPOLATE Z_last.
_NODES = [0.0, *RADAU_C.tolist()]
RADAU_EXTRAPOLATE = np.array([
    [_lagrange(_NODES, i, 1.0 + c) - (i == 3) for i in (1, 2, 3)]
    for c in RADAU_C.tolist()
])


@dataclass(frozen=True)
class ImplicitSolveReport:
    converged: bool
    newton_iters: int
    final_residual: float


class ReferenceSolverError(RuntimeError):
    """Newton failed even after local step halving.

    ``t`` and ``h`` locate the last failed step, ``method`` is
    ``"trapezoidal"`` or ``"radau5"``, and ``report`` is its Newton report;
    the message is built from these four and ``MAX_HALVINGS``.
    """

    def __init__(self, report: ImplicitSolveReport, t: float, h: float, method: str):
        super().__init__(
            f"{method} Newton failed at t={t} with h={h} after "
            f"{MAX_HALVINGS} halvings (residual {report.final_residual:.3e})"
        )
        self.report = report
        self.t = t
        self.h = h
        self.method = method


# scipy's LU under module-level names, so that a test can count the
# factorizations by replacing ``lu_factor``.
def lu_factor(a, overwrite_a=False, check_finite=True):
    """``scipy.linalg.lu_factor``, importing scipy.linalg at the first call."""
    import scipy.linalg
    return scipy.linalg.lu_factor(a, overwrite_a, check_finite)


def lu_solve(lu_and_piv, b, trans=0, overwrite_b=False, check_finite=True):
    """``scipy.linalg.lu_solve``, importing scipy.linalg at the first call."""
    import scipy.linalg
    return scipy.linalg.lu_solve(lu_and_piv, b, trans, overwrite_b, check_finite)


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


class _KeptMatrix:
    """The dense Newton inverse one integration carries, with the h it is for.

    A Radau IIA integration also keeps its last accepted stage increments
    and their h, from which the next step's predictor is extrapolated.
    """

    __slots__ = ("h", "inv", "last_h", "last_z")

    def __init__(self):
        self.h = self.inv = self.last_h = self.last_z = None


def _newton(residual, z, correct, max_iter, tol):
    """Newton iteration from the predictor z; (z, report).

    Each iteration evaluates ``residual(z)`` and, unless it accepts z,
    subtracts ``correct(g)``.  An iterate is accepted once its residual is at
    most ``tol``, and only after at least one correction: a predictor that
    already meets the tolerance would leave its stopping error in the step,
    and over many steps those errors add up.

    A diverging iterate may push the right-hand side out of range; that is
    an expected signal (it triggers a refresh or the halving retry), so
    overflow warnings are silenced here rather than leaking to the caller.
    """
    resid = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            g = residual(z)
            resid = float(np.abs(g).max())
            if not math.isfinite(resid):
                break
            if resid <= tol and it > 1:
                return z, ImplicitSolveReport(True, it, resid)
            z = z - correct(g)
    return z, ImplicitSolveReport(False, it, resid)


def _dense_newton(residual, z0, h, kept, matrix, tol):
    """Simplified Newton on a dense system: the kept inverse, else a fresh one.

    ``matrix()`` builds the step's Newton matrix from a fresh Jacobian.  The
    report counts the iterations on the kept and on the fresh inverse
    together.
    """
    spent = 0
    if kept.h == h:
        z, report = _newton(residual, z0, kept.inv.dot, KEEP_MAX_ITER, tol)
        if report.converged:
            return z, report
        spent = report.newton_iters
    m = matrix()
    inv = lu_solve(lu_factor(m), np.eye(m.shape[0]))
    z, report = _newton(residual, z0, inv.dot, NEWTON_MAX_ITER, tol)
    keep = report.converged and report.newton_iters <= KEEP_MAX_ITER
    kept.h, kept.inv = (h, inv) if keep else (None, None)
    return z, replace(report, newton_iters=spent + report.newton_iters)


def _tolerance(y):
    """The Newton tolerance of a step from y: ``NEWTON_TOL * max(1, ||y||_inf)``."""
    return NEWTON_TOL * max(1.0, float(np.abs(y).max()))


def _trap_step(rhs, jac_fn, t, y, h, bands=None, kept=None):
    """One trapezoidal step; returns (y_new, report).

    With ``bands = (l, u)`` the Jacobian comes in banded storage and each
    Newton correction is a banded solve.  Otherwise ``kept``, a
    ``_KeptMatrix`` carried from step to step, supplies and receives the
    dense inverse; without it the step builds a fresh one.
    """
    f0 = rhs(t, y)

    def residual(z):
        return z - y - 0.5 * h * (f0 + rhs(t + h, z))

    predictor = y + h * f0  # explicit Euler
    tol = _tolerance(y)
    if bands is not None:
        from scipy.linalg import solve_banded
        ab = (-0.5 * h) * jac_fn(t, y)
        ab[bands[1]] += 1.0  # row u of the storage is the main diagonal
        return _newton(residual, predictor, lambda g: solve_banded(bands, ab, g),
                       NEWTON_MAX_ITER, tol)

    def matrix():
        jac = jac_fn(t, y) if jac_fn is not None else _fd_jacobian(rhs, t, y, f0)
        return np.eye(y.size) - 0.5 * h * jac

    return _dense_newton(residual, predictor, h, kept or _KeptMatrix(), matrix, tol)


def _radau_step(rhs, jac_fn, t, y, h, kept):
    """One 3-stage Radau IIA step; returns (y_new, report).

    Newton solves Z = h (A kron I) F(y + Z) for the stage increments, from
    the extrapolated last step when it had the same h, else from Z = 0.  The
    method is stiffly accurate, so y_new = y + z_3.
    """
    n = y.size
    ha = h * RADAU_A
    t1, t2, t3 = (t + h * RADAU_C).tolist()

    def residual(z):
        y1, y2, y3 = y + z.reshape(3, n)
        f = np.array([rhs(t1, y1), rhs(t2, y2), rhs(t3, y3)])
        return z - ha.dot(f).ravel()

    def matrix():
        jac = jac_fn(t, y) if jac_fn is not None else _fd_jacobian(rhs, t, y, rhs(t, y))
        return np.eye(3 * n) - np.kron(ha, jac)

    if kept.last_h == h:
        z0 = RADAU_EXTRAPOLATE.dot(kept.last_z.reshape(3, n)).ravel()
    else:
        z0 = np.zeros(3 * n)
    z, report = _dense_newton(residual, z0, h, kept, matrix, _tolerance(y))
    if report.converged:
        kept.last_h, kept.last_z = h, z
    return y + z[2 * n:], report


def _advance(step, method, t, y, h, depth):
    """y at t + h by ``step(t, y, h)``, halving a failed step recursively."""
    y_new, report = step(t, y, h)
    if report.converged:
        return y_new
    if depth >= MAX_HALVINGS:
        raise ReferenceSolverError(report, t, h, method)
    y_mid = _advance(step, method, t, y, h / 2.0, depth + 1)
    return _advance(step, method, t + h / 2.0, y_mid, h / 2.0, depth + 1)


def _integrate(problem, t_from, t_to, steps, y_from, radau):
    """Endpoint of ``steps`` equal Radau IIA or trapezoidal steps."""
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
    kept = _KeptMatrix() if bands is None else None
    method = "radau5" if radau else "trapezoidal"

    def step(t, y, h):
        if radau:
            return _radau_step(rhs, jac_fn, t, y, h, kept)
        return _trap_step(rhs, jac_fn, t, y, h, bands, kept)

    h = (t_to - t_from) / steps
    for k in range(steps):
        y = _advance(step, method, t_from + k * h, y, h, depth=0)
    return y


def reference_integrate(problem, t_from: float, t_to: float, steps: int,
                        y_from: np.ndarray | None = None) -> np.ndarray:
    """Endpoint state of ``problem`` integrated from t_from to t_to.

    Starts from ``y_from`` when given, otherwise from the problem's initial
    state (which then must sit at t_from).  Uses ``steps`` equal trapezoidal
    steps; the problem's analytic Jacobian is used when it has one, banded
    when the problem declares ``jac_bands``.
    """
    return _integrate(problem, t_from, t_to, steps, y_from, radau=False)


_SOLVER_PART = "|ref-v"  # starts the last part of a record key


def record_key(content: str, schedule, y_from) -> str:
    """The key of ``schedule`` run from ``y_from`` on a problem whose
    ``cache_key`` is ``content``, with this solver's version and tolerance."""
    y_hash = hashlib.sha1(np.asarray(y_from).tobytes()).hexdigest()[:10]
    return f"{content}|{schedule!r}|{y_hash}{_SOLVER_PART}{SOLVER_VERSION}|tol={NEWTON_TOL!r}"


def record_name(key: str) -> str:
    """``key`` without the solver's version and tolerance: its record's name."""
    return key.partition(_SOLVER_PART)[0]


def certified_endpoint(problem, schedule, y_from: np.ndarray | None = None):
    """(fine endpoint, gap) of a schedule of ``(t_from, t_to, steps)`` segments.

    The segments run one after the other from ``y_from`` (the problem's
    initial state when None), once as given and once with every step count
    doubled: by Radau IIA for a dense problem, by the trapezoidal rule for a
    banded one.  The gap is the max-norm difference of the two endpoints.
    It bounds the error of the doubled (fine) run for any order >= 1, so a
    stiff order reduction cannot make it too small.
    """
    radau = getattr(problem, "jac_bands", None) is None
    ends = []
    for factor in (1, 2):
        y = y_from
        for t_from, t_to, steps in schedule:
            y = _integrate(problem, t_from, t_to, factor * steps, y, radau)
        ends.append(y)
    base, fine = ends
    return fine, float(np.max(np.abs(base - fine)))


def richardson_validate(problem, t_from: float, t_to: float, steps: int,
                        y_from: np.ndarray | None = None) -> float:
    """Order-2 Richardson estimate of the ``reference_integrate`` endpoint error.

    Runs with ``steps`` and ``2 * steps`` trapezoidal steps and returns the
    max-norm endpoint difference divided by 3, an estimate of the error of
    the finer run.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2 for validation, got {steps}")
    coarse = reference_integrate(problem, t_from, t_to, steps, y_from)
    fine = reference_integrate(problem, t_from, t_to, 2 * steps, y_from)
    return float(np.max(np.abs(coarse - fine))) / 3.0
