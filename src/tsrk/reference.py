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
  tridiagonal.  A banded matrix that is not finite or is singular gives a
  correction that is not finite, so Newton fails and the step halves, as
  a dense one does.

Both methods run one Newton loop, ``_newton``.  Each step hands it its
predictor, its residual g(z) and its correction.  A dense step runs
simplified Newton (Hairer & Wanner, IV.8): one integration keeps the inverse
of its Newton matrix, computed from an LU factorization with partial
pivoting, across its steps.  A step first tries the kept inverse for at most
``KEEP_MAX_ITER`` iterations.  When that fails, or the inverse was built for
another h, the Jacobian (the problem's ``jac``, for a registry model
``_jacobian`` of its text; forward differences without one) and the inverse
are refreshed at the start of the step and the step restarts from its
predictor with up to ``NEWTON_MAX_ITER`` iterations; the fresh inverse is
kept only if that step converged within ``KEEP_MAX_ITER`` iterations.  A
fresh matrix that is not finite (never passed to scipy), or is singular,
gets an inverse that is not finite, so Newton diverges and the step fails.
A step is accepted only after at least one correction, with a finite
residual at most ``NEWTON_TOL * max(1, ||y||_inf)``, y the step's start
state: the residual's rounding floor grows with the state.  A step that
fails with a fresh matrix is retried on two half steps, recursively up to
``MAX_HALVINGS`` levels, before giving up.  A diverging iterate may
overflow; that is an expected signal, so ``_integrate`` runs all its steps
under one ``np.errstate`` that silences numpy's overflow and invalid
warnings.

Each Radau IIA residual needs F at three stage states.  Where ``_fused``
holds (a registry model's own rhs on a y of the model's shape, as for a
fused ``integrator.integrate``), it runs the model's lines on Python floats
as three rows of the model's row function (``_rows``), the one its rhs runs
with one row: the rhs's IEEE operations in its order, so F keeps its bits,
without three calls.  ``_generate`` compiles that function and the stage
loop, the package's only generated code, and holds a model's text to its
grammar.  The products with h A (formed once per step size) and the kept
inverse stay numpy calls, as OpenBLAS's FMA kernels round differently from
a Python sum.  Every other rhs, a wrapper of a model's included, is called.

scipy.linalg is imported at the first factorization or banded solve, not
with the module: designing methods and scanning their stability never solve
a linear system, so ``import tsrk`` and those commands load numpy alone.
"""
from __future__ import annotations

import ast
import builtins
import functools
import hashlib
import math
import textwrap
import warnings
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
SOLVER_VERSION = 6
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
def lu_factor(a):
    """``scipy.linalg.lu_factor``, importing scipy.linalg at the first call."""
    import scipy.linalg
    return scipy.linalg.lu_factor(a)


def lu_solve(lu_and_piv, b):
    """``scipy.linalg.lu_solve``, importing scipy.linalg at the first call."""
    import scipy.linalg
    return scipy.linalg.lu_solve(lu_and_piv, b)


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
    and their h, from which the next step's predictor is extrapolated, and
    h A and the list h c for the h of its steps, ``step_h``, which changes
    only on a halving.
    """

    __slots__ = ("h", "inv", "last_h", "last_z", "step_h", "ha", "hc")

    def __init__(self):
        self.h = self.inv = self.last_h = self.last_z = self.step_h = self.ha = self.hc = None


def _newton(residual, z, correct, max_iter, tol):
    """Newton iteration from the predictor z; (z, report).

    Each iteration evaluates ``residual(z)`` and, unless it accepts z,
    subtracts ``correct(g)``.  An iterate is accepted once its residual is at
    most ``tol``, and only after at least one correction: a predictor that
    already meets the tolerance would leave its stopping error in the step,
    and over many steps those errors add up.

    A diverging iterate may push the right-hand side out of range; that is
    an expected signal (it triggers a refresh or the halving retry).  The
    overflow warnings are silenced by ``_integrate``, once for its whole
    run, not here: a caller of ``_trap_step`` or ``_radau_step`` whose
    iterates may diverge sets ``np.errstate`` itself.
    """
    resid = math.inf
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
    # The inverse of a singular m has an inf or a nan, and so has the stand-in
    # for a non-finite m, which never reaches scipy: Newton then diverges.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lu_factor's warning of a zero pivot
        inv = (lu_solve(lu_factor(m), np.eye(m.shape[0])) if np.isfinite(m).all()
               else np.full(m.shape, np.nan))
    z, report = _newton(residual, z0, inv.dot, NEWTON_MAX_ITER, tol)
    keep = report.converged and report.newton_iters <= KEEP_MAX_ITER
    kept.h, kept.inv = (h, inv) if keep else (None, None)
    if spent:
        report = replace(report, newton_iters=spent + report.newton_iters)
    return z, report


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
        from scipy.linalg import LinAlgError, solve_banded
        ab = (-0.5 * h) * jac_fn(t, y)
        ab[bands[1]] += 1.0  # row u of the storage is the main diagonal
        finite = np.isfinite(ab).all()

        def correct(g):  # g is finite: _newton stops on a residual that is not
            if finite:
                try:
                    return solve_banded(bands, ab, g, check_finite=False)
                except LinAlgError:  # a singular matrix
                    pass
            return np.full(g.shape, np.nan)  # Newton fails, and the step halves

        return _newton(residual, predictor, correct, NEWTON_MAX_ITER, tol)

    def matrix():
        jac = jac_fn(t, y) if jac_fn is not None else _fd_jacobian(rhs, t, y, f0)
        return np.eye(y.size) - 0.5 * h * jac

    return _dense_newton(residual, predictor, h, kept or _KeptMatrix(), matrix, tol)


def _fused(f, y) -> bool:
    """Whether f is the rhs its ``model`` names (``problems._model``), not a
    ``functools.wraps`` copy, and y (float64 from every caller) has the
    model's shape (n,): f then runs as lines.  A y of another size calls f,
    which raises."""
    model = getattr(f, "model", (None,))
    return model[0] is f and y.shape == (model[2],)


def _names(term, n):
    """``term`` formatted with 0..n-1, comma-joined with a trailing comma:
    "y0, y1," for "y{0}" and n = 2, a tuple or list however small n is."""
    return ", ".join(term.format(i) for i in range(n)) + ","


# A model text's grammar, which ``_generate`` holds it to.  A line is ``name
# = expr``, expr int and float numbers and names under unary + and -, + - *
# / and ** a number, so f is analytic in y and its complex-step Jacobian
# (``_jacobian``) is exact to rounding, with no difference to cancel.  Each
# name is bound once, before it is read: a y_i or a float of the model's
# module (``VDPOL_EPS``) by the caller, any other by one line, and never a
# builtin or a name starting with _.  Each statement or expression a line
# may hold has its test here, of the node and of the names bound before its
# line; any other node (an operator, a context) is judged by its parent.
_GRAMMAR = {
    ast.Assign: lambda node, names: len(node.targets) == 1,
    ast.Name: lambda node, names: node.id[0] != "_" and not hasattr(builtins, node.id)
    and (node.id in names) == isinstance(node.ctx, ast.Load),
    ast.BinOp: lambda node, names: isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div))
    or isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant),
    ast.UnaryOp: lambda node, names: isinstance(node.op, (ast.UAdd, ast.USub)),
    ast.Constant: lambda node, names: type(node.value) in (int, float),
}
_BY_PARENT = lambda node, names: not isinstance(node, (ast.stmt, ast.expr))
_RULE = "a model text reads no t, assigns no y_i or builtin and keeps to reference._GRAMMAR"


def _generate(rhs, name, source):
    """The function ``name`` defined by ``source``, which holds the lines of
    ``rhs``'s model among locals that start with _, compiled in ``rhs``'s
    globals: the package's one ``exec``.  A model text outside ``_GRAMMAR``
    or that assigns no f_i raises ``ValueError`` here, before any run, naming
    ``rhs`` and its first node outside (a line's names first) or the f_i."""
    n = rhs.model[2]
    names = {f"y{i}" for i in range(n)} | {
        key for key, value in rhs.__globals__.items() if isinstance(value, float)}
    for line in ast.parse(rhs.model[1]).body:
        for node in sorted(ast.walk(line), key=lambda node: not isinstance(node, ast.Name)):
            if not _GRAMMAR.get(type(node), _BY_PARENT)(node, names):
                raise ValueError(f"{rhs.__name__}'s model text uses {ast.unparse(node)!r}; {_RULE}")
        names.add(line.targets[0].id)
    if missing := [f"f{i}" for i in range(n) if f"f{i}" not in names]:
        raise ValueError(f"{rhs.__name__}'s model text assigns no {missing[0]!r}; {_RULE}")
    namespace = {}
    exec(compile(source, f"<{name}, n={n}>", "exec"), rhs.__globals__, namespace)
    return namespace[name]


@functools.cache
def _rows(rhs):
    """``(u, z) ->`` the rows f(u + z_i), one per row z_i of z, in one flat
    list, u and each z_i lists of n floats: the lines of ``rhs``'s model
    (``problems._model``, which fixes n).  Its rhs runs one row at z_i =
    -0.0, the Radau IIA residual three, ``_jacobian`` n complex rows.  Where
    a float ``**`` overflows, they run again with u numpy float64 scalars,
    which give inf; a u of another length raises ``ValueError``."""
    n = rhs.model[2]
    size_error = f"{rhs.__name__} takes a state of size {n}, got size "
    lines = _generate(rhs, "rows", (
        f"def rows(_u, _z):\n"
        f"    try:\n"
        f"        {_names('_u{0}', n)} = _u\n"
        f"    except ValueError:\n"
        f"        raise ValueError({size_error!r} + str(len(_u))) from None\n"
        f"    _rows = []\n"
        f"    for {_names('_z{0}', n)} in _z:\n"
        f"        {_names('y{0}', n)} = {_names('_u{0} + _z{0}', n)}\n"
        f"{textwrap.indent(rhs.model[1], ' ' * 8)}\n"
        f"        _rows += {_names('f{0}', n)}\n"
        f"    return _rows\n"))

    def rows(u, z):
        try:
            return lines(u, z)
        except OverflowError:  # every y_i = u_i + z_i is then a numpy scalar
            with np.errstate(over="ignore", invalid="ignore"):
                return lines([*map(np.float64, u)], z)

    return rows


def _jacobian(rhs):
    """``(t, y) ->`` the Jacobian of ``rhs``'s model by the complex step, J[:, j]
    = Im f(y + i d e_j) / d, d = 1e-30, from one ``_rows(rhs)`` call of n rows."""
    n, rows, steps = rhs.model[2], _rows(rhs), (1e-30j * np.eye(rhs.model[2])).tolist()

    def jac(t, y):
        return (np.array(rows(y.tolist(), steps)).imag / 1e-30).reshape(n, n).T

    return jac


def _radau_step(rhs, jac_fn, t, y, h, kept):
    """One 3-stage Radau IIA step; returns (y_new, report).

    Newton solves Z = h (A kron I) F(y + Z) for the stage increments, from
    the extrapolated last step when it had the same h, else from Z = 0.  The
    method is stiffly accurate, so y_new = y + z_3.  A registry model's rhs
    on a float64 y of its shape runs as its lines (``_rows``); every other
    rhs is called three times per residual.  h A and h c come from ``kept``.
    """
    n = y.size
    if kept.step_h != h:
        kept.step_h, kept.ha, kept.hc = h, h * RADAU_A, (h * RADAU_C).tolist()
    ha = kept.ha

    def called(z):  # F(y + Z) by three calls of rhs, at the stage times t + h c_i
        return np.array([rhs(t + hc, y_i) for hc, y_i in zip(kept.hc, y + z.reshape(3, n))])

    def fused(z):  # F(y + Z) by the model's lines
        return np.array(rows(u, z.reshape(3, n).tolist())).reshape(3, n)

    stage_values = called
    if _fused(rhs, y):
        rows, u, stage_values = _rows(rhs), y.tolist(), fused

    def residual(z):
        return z - ha.dot(stage_values(z)).ravel()

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
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an int >= 1, got {steps!r}")
    if not (math.isfinite(t_from) and math.isfinite(t_to) and t_to > t_from):
        raise ValueError(f"need finite t_from < t_to, got [{t_from}, {t_to}]")
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
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            y = _advance(step, method, t_from + k * h, y, h, depth=0)
    return y


def reference_integrate(problem, t_from: float, t_to: float, steps: int,
                        y_from: np.ndarray | None = None) -> np.ndarray:
    """Endpoint state of ``problem`` integrated from t_from to t_to.

    Starts from ``y_from`` when given, otherwise from the problem's initial
    state (which then must sit at t_from).  Uses ``steps`` equal trapezoidal
    steps; the problem's Jacobian ``jac`` is used when it has one, banded
    when the problem declares ``jac_bands``.  A window that is not finite
    with t_from < t_to, or a ``steps`` that is not an int >= 1 (a bool is
    not), is a ``ValueError`` naming it.
    """
    return _integrate(problem, t_from, t_to, steps, y_from, radau=False)


_SOLVER_PART = "|ref-v"  # starts the last part of a record key


def record_key(content: str, schedule, y_from) -> str:
    """The key of ``schedule`` run from ``y_from`` on a problem whose
    ``cache_key`` is ``content``, with this solver's version and tolerance."""
    y_hash = hashlib.sha1(np.asarray(y_from).tobytes()).hexdigest()[:10]
    return f"{content}|{schedule!r}|{y_hash}{_SOLVER_PART}{SOLVER_VERSION}|tol={NEWTON_TOL!r}"


def record_name(key: str) -> str:
    """The file stem of ``key``'s record, ``<tag>_<sha1[:12]>``: the hash skips
    the solver's version and tolerance, so a new version rewrites the file."""
    digest = hashlib.sha1(key.partition(_SOLVER_PART)[0].encode()).hexdigest()[:12]
    return f"{key.split('|')[0]}_{digest}"


def certified_endpoint(problem, schedule, y_from: np.ndarray | None = None):
    """(fine endpoint, gap) of a schedule of ``(t_from, t_to, steps)`` segments.

    The segments run one after the other from ``y_from`` (the problem's
    initial state when None), once as given and once with every step count
    doubled: by Radau IIA for a dense problem, by the trapezoidal rule for a
    banded one.  The gap is the max-norm difference of the two endpoints.
    It bounds the error of the doubled (fine) run for any order >= 1, so a
    stiff order reduction cannot make it too small.  An empty schedule, or
    one whose segment does not start where the one before it ends, would
    certify a state no integration reached: a ``ValueError`` before any step.
    """
    if not schedule:
        raise ValueError("certified_endpoint needs at least one segment, got none")
    for i in range(1, len(schedule)):
        if schedule[i][0] != schedule[i - 1][1]:
            raise ValueError(f"segment {i} starts at t={schedule[i][0]!r}, not where "
                             f"segment {i - 1} ends, t={schedule[i - 1][1]!r}")
    radau = getattr(problem, "jac_bands", None) is None
    ends = []
    for fine in (False, True):  # the base run takes the counts as given
        y = y_from
        for t_from, t_to, steps in schedule:
            y = _integrate(problem, t_from, t_to, 2 * steps if fine else steps, y, radau)
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
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 2:
        raise ValueError(f"steps must be an int >= 2 for validation, got {steps!r}")
    coarse = reference_integrate(problem, t_from, t_to, steps, y_from)
    fine = reference_integrate(problem, t_from, t_to, 2 * steps, y_from)
    return float(np.max(np.abs(coarse - fine))) / 3.0
