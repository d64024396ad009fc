"""Constant-step execution of the two-step stage recurrence.

One step from y_prev = y_{n-1} and y_curr = y_n at t_n runs

    v_0 = a~ y_n + (1 - a~) y_{n-1}
    v_1 = v_0 + h m~_1 f(t_n + c_0 h, v_0)
    v_j = m_j v_{j-1} + (1 - m_j) v_{j-2} + h m~_j f(t_n + c_{j-1} h, v_{j-1})
    y_{n+1} = a y_n + b v_s,

costing exactly s right-hand-side evaluations and three live stage vectors
(plus each stage's temporaries) regardless of s.  Note the abscissa
coefficients c_j sit near a~ - 1 (about 19 at the default damping): stages
sample far ahead of the step, which is intrinsic to the scheme, not a bug.

A stage costs numpy call overhead on a small system, not arithmetic, so
``step`` runs stages 2..s on Python float lists when the state and f's first
value in the step are 1-D float64 with at most ``_LIST_LOOP_MAX_DIM`` = 8
components (Van der Pol, Robertson, HIRES): each stage is one list
comprehension, m_j a + (1 - m_j) b + h m~_j c over the components of
v_{j-1}, v_{j-2} and f.  A problem with a list form of f (``list_rhs``:
the three registry problems above) hands it to ``step``, which calls it on
v_{j-1} as a list, so its stages make no array at all: one ``np.array`` is
made for y_{n+1}, and one more only for a stage that must go to the
max-norm test below.  Any other f gets ``np.array`` of its argument and
returns ``.tolist()`` of its value.  A Python float is an IEEE double and
the comprehension keeps numpy's order of operations, so the iterates are
bit-for-bit those of the array loop.  With a
linear f at s = 100 a list-loop stage took 0.59, 0.75, 1.00 and 2.16 times
as long as an array-loop stage at n = 3, 8, 16 and 64 (BENCH_12.json): the
loops cross near 16, and the bound sits below that.  Every other state runs
on numpy arrays, with the coefficients kept as numpy float64 scalars: under
NEP 50 a Python float times a float32 array stays float32, a numpy float64
does not.  So on either loop the iterates are those of indexing the
coefficient arrays per stage.  f's first value in a step must have the
state's shape (``ValueError`` otherwise); on the list loop later values are
held to it by ``zip(strict=True)``.

Every stage vector v_j passes a blow-up guard: it must be free of NaN and
inf and have max-norm at most ``BLOWUP_NORM``, else ``BlowUpError`` names
stage j.  On the list loop a stage passes at once when math.hypot(v) <=
BLOWUP_NORM: hypot errs by less than one ulp (Python >= 3.10), so it rounds
faithfully and returns at least max|v_i|, a double no larger than the exact
norm; NaN, inf and an overflowing norm make it fail.  For a real 1-D numpy
v the guard first tests v.v <= BLOWUP_NORM^2, one dot product.  The rounded
sum of squares is at least every rounded v_i^2, whatever the summation
order, and any NaN, inf or overflow makes it fail; so when it passes, the
max-norm test passes too.  When either shortcut fails, or v is complex (v.v
does not conjugate) or not 1-D, the max-norm test decides.  A dot product
that overflows would warn, so ``step`` runs with numpy overflow warnings
off, f's included: an overflow leaves an inf, which the guard reports as the
stage it happened in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .design import (
    DEFAULT_EPS,
    TwoStepMethod,
    solve_damping,
    stable_interval_length,
)
from .reference import record_key, reference_integrate

__all__ = [
    "BLOWUP_NORM",
    "STAGE_CAP",
    "BlowUpError",
    "CapacityError",
    "RunResult",
    "step",
    "integrate",
    "starter_y1",
    "select_stages",
    "estimate_spectral_radius",
]

BLOWUP_NORM = 1e15
_BLOWUP_NORM_SQ = BLOWUP_NORM * BLOWUP_NORM
STAGE_CAP = 2048
_LIST_LOOP_MAX_DIM = 8
_POWER_MAX_ITER = 50
_POWER_SAFETY = 1.05
_STARTER_SUBSTEPS = 64

# Starting values of registry problems, (read-only y_1, starter f-evals) by
# ``_starter_key``; see ``integrate``.
_STARTERS: dict[str, tuple[np.ndarray, int]] = {}


class BlowUpError(RuntimeError):
    """A stage left the finite range: the run is unstable (or truly exploding).

    ``stage`` is j of v_j and ``t`` the step's t_n.  ``integrate`` sets
    ``steps_done``, the two-step applications completed, and ``fevals``, all
    f evaluations so far, the starter's too; out of ``step`` alone both are 0.
    """

    steps_done = 0
    fevals = 0

    def __init__(self, stage: int, t: float):
        super().__init__(
            f"non-finite or oversized stage value (stage {stage}, t={t:g})"
        )
        self.stage = stage
        self.t = t


class CapacityError(RuntimeError):
    """select_stages hit the stage-count cap."""


@dataclass(frozen=True)
class RunResult:
    """Endpoint state and accounting of one constant-step integration; the
    endpoint reference's accuracy is ``problem.reference().estimate``."""

    y_end: np.ndarray
    steps_taken: int  # two-step applications
    endpoint_error: float | None
    method_s: int
    starter_evals: int = 0

    @property
    def stage_evals(self) -> int:
        """f evaluations inside the stage recurrence, s per step."""
        return self.steps_taken * self.method_s


def _check_stage(v: np.ndarray, stage: int, t: float) -> None:
    # NaN compares false, so NaN, +-inf and oversize values all fail both
    # tests; on real 1-D v the dot product fails only where the max-norm may.
    if v.ndim == 1 and v.dtype.kind == "f" and v.dot(v) <= _BLOWUP_NORM_SQ:
        return
    if not np.abs(v).max() <= BLOWUP_NORM:
        raise BlowUpError(stage, t)


def step(method: TwoStepMethod, f, t_n: float, y_prev: np.ndarray,
         y_curr: np.ndarray, h: float, list_f=None) -> np.ndarray:
    """Advance from y_prev = y_{n-1} and y_curr = y_n at t_n; returns y_{n+1}.

    The two must have one shape and h must be positive (``ValueError``
    otherwise).  ``list_f``, if given, is f on Python float lists
    (``list_f(t, v.tolist())`` equals ``f(t, v).tolist()``); the list loop
    calls it for stages 2..s.
    """
    if np.shape(y_prev) != np.shape(y_curr):
        raise ValueError("y_prev and y_curr must have identical shape")
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    h_mt = h * method.m_tilde
    t_c = t_n + method.c * h
    coeffs = (method.m, 1.0 - method.m, h_mt[1:], t_c[1:])  # of stages 2..s

    with np.errstate(over="ignore"):
        v_pp = method.a_tilde * y_curr + (1.0 - method.a_tilde) * y_prev
        _check_stage(v_pp, 0, t_n)
        f_0 = f(t_c[0], v_pp)
        if np.shape(f_0) != v_pp.shape:
            raise ValueError(
                f"f returned shape {np.shape(f_0)} for a state of shape {v_pp.shape}"
            )
        v_p = v_pp + h_mt[0] * f_0
        _check_stage(v_p, 1, t_n)
        if (v_pp.ndim == 1 and v_pp.size <= _LIST_LOOP_MAX_DIM
                and v_pp.dtype == np.float64 and f_0.dtype == np.float64):
            if list_f is None:
                def list_f(t_j, lv):
                    return f(t_j, np.array(lv)).tolist()
            lp, lpp = v_p.tolist(), v_pp.tolist()
            for j, m_j, w_j, h_mt_j, t_j in zip(range(2, method.s + 1),
                                                *(a.tolist() for a in coeffs)):
                lv = [m_j * a + w_j * b + h_mt_j * c
                      for a, b, c in zip(lp, lpp, list_f(t_j, lp), strict=True)]
                if not math.hypot(*lv) <= BLOWUP_NORM:
                    _check_stage(np.array(lv), j, t_n)
                lpp, lp = lp, lv
            v_p = np.array(lp)
        else:
            for j, m_j, w_j, h_mt_j, t_j in zip(range(2, method.s + 1), *coeffs):
                v = m_j * v_p + w_j * v_pp + h_mt_j * f(t_j, v_p)
                _check_stage(v, j, t_n)
                v_pp, v_p = v_p, v
    return method.a * y_curr + method.b * v_p


def starter_y1(problem, h: float) -> np.ndarray:
    """y_1 = y(t_0 + h): ``reference_integrate`` over one step in 64 substeps."""
    return reference_integrate(problem, problem.t0, problem.t0 + h, _STARTER_SUBSTEPS)


def _starter_key(problem, h: float) -> str | None:
    """The record key of the starter's y_1, or None for a problem without a key."""
    content = getattr(problem, "cache_key", None)
    if content is None:
        return None
    t0 = problem.t0
    return record_key(content, ((t0, t0 + h, _STARTER_SUBSTEPS),), problem.y0)


def _step_count(span: float, h: float) -> int:
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    n = span / h
    n_int = round(n)
    if n_int < 1 or abs(n - n_int) > 1e-8 * max(1.0, abs(n)):
        raise ValueError(
            f"(t_out - t0)/h = {n!r} must be a positive integer; "
            f"pick h dividing the window exactly"
        )
    return n_int


def integrate(method: TwoStepMethod, problem, h: float, *,
              y1: np.ndarray | None = None) -> RunResult:
    """Run ``method`` over the problem's window with constant step h.

    y_1 comes from the reference starter unless supplied; a supplied y_1 must
    have the shape of y_0 (``ValueError`` otherwise).  When the problem
    carries an endpoint reference the max-norm endpoint error is attached.
    On instability the raised BlowUpError carries the progress counters.
    The stages call the problem's list form of rhs (``list_rhs``) while
    ``problem.rhs`` is the function it mirrors, and ``problem.rhs`` otherwise.

    A problem with a ``cache_key`` (every registry problem: the Van der Pol,
    Robertson and HIRES windows, Burgers and heat1d) computes its starter
    once per process, memoized under the key a certified record of the
    starter's schedule would carry (``reference.record_key``: the problem's
    key, the segment (t0, t0 + h, 64), y0, the reference solver's
    version and Newton tolerance).  Later runs, such as a stage hunt over s
    at one h, reuse y_1 and report the same ``starter_evals``.  The memo
    lives in memory only and keeps no starter that raised.  A problem
    without a key, and a supplied y_1, never touch it.
    """
    n = _step_count(problem.t_out - problem.t0, h)
    starter_evals = 0
    if y1 is None:
        key = _starter_key(problem, h)
        if key in _STARTERS:
            y1, starter_evals = _STARTERS[key]
        else:
            def counted(t, y):
                nonlocal starter_evals
                starter_evals += 1
                return problem.rhs(t, y)

            y1 = starter_y1(replace(problem, rhs=counted), h)
            if key is not None:
                y1.setflags(write=False)
                _STARTERS[key] = (y1, starter_evals)
    y_prev, y_curr = np.array(problem.y0, dtype=float), np.array(y1, dtype=float)
    if y_curr.shape != y_prev.shape:
        raise ValueError(f"y1 has shape {y_curr.shape}, y0 has shape {y_prev.shape}")

    mirrored, list_f = getattr(problem, "list_rhs", None) or (None, None)
    if mirrored is not problem.rhs:  # a copy with another rhs
        list_f = None
    t0 = problem.t0
    for k in range(1, n):
        try:
            y_next = step(method, problem.rhs, t0 + k * h, y_prev, y_curr, h, list_f)
        except BlowUpError as exc:
            exc.steps_done = k - 1
            exc.fevals = starter_evals + (k - 1) * method.s + exc.stage
            raise
        y_prev, y_curr = y_curr, y_next

    ref = getattr(problem, "reference", None)
    err = None if ref is None else float(np.max(np.abs(y_curr - ref().y)))
    return RunResult(y_end=y_curr, steps_taken=n - 1, endpoint_error=err,
                     method_s=method.s, starter_evals=starter_evals)


def _length(s: int, eps: float) -> float:
    return stable_interval_length(solve_damping(s, eps))


def select_stages(rho: float, h: float, eps: float = DEFAULT_EPS) -> int:
    """Smallest stage count s >= 2 with l_s(eps) >= h * rho.

    l_s is the true interval length (``stable_interval_length``), which for
    even s is about 9e-4 shorter than the paper's closed form.  One search
    finds it: seeded at the asymptotic ratio l_s ~ 1.901167 s^2, it steps
    down while l_{s-1} suffices, then up while l_s falls short.  l_s rises
    with s, so a target at or below l_2 ends at s = 2.  The upward search
    raises CapacityError when it would step past ``STAGE_CAP``; l_STAGE_CAP
    is never solved for unless the search reaches it.
    """
    if rho < 0.0 or not math.isfinite(rho):
        raise ValueError(f"spectral radius must be finite and >= 0, got {rho}")
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    target = h * rho
    s = min(max(2, math.ceil(math.sqrt(target / 1.901167))), STAGE_CAP)
    while s > 2 and _length(s - 1, eps) >= target:
        s -= 1
    while _length(s, eps) < target:
        if s == STAGE_CAP:
            raise CapacityError(
                f"h * rho = {target:g} needs more than {STAGE_CAP} stages; "
                f"reduce the step size"
            )
        s += 1
    return s


def estimate_spectral_radius(problem) -> float:
    """Dominant Jacobian eigenvalue magnitude at the problem's start (t0, y0).

    An analytic bound supplied by the problem takes precedence.  Otherwise a
    nonlinear power iteration on directional differences
    (f(t, y + d v) - f(t, y)) / d is run for at most ``_POWER_MAX_ITER``
    sweeps and the estimate is inflated by ``_POWER_SAFETY``.
    """
    t = problem.t0
    bound = getattr(problem, "rho_bound", None)
    if bound is not None:
        return float(bound(t, problem.y0))

    y = np.asarray(problem.y0, dtype=float)
    f0 = problem.rhs(t, y)
    n = y.size
    delta = math.sqrt(np.finfo(float).eps) * max(float(np.linalg.norm(y)), 1.0)

    # Deterministic start direction; re-seeded with a shifted pattern if the
    # directional difference vanishes.
    v = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    lam = 0.0
    for attempt in range(3):
        for _ in range(_POWER_MAX_ITER):
            w = (problem.rhs(t, y + delta * v) - f0) / delta
            norm_w = float(np.linalg.norm(w))
            if norm_w == 0.0:
                break
            v = w / norm_w
            if abs(norm_w - lam) <= 1e-2 * norm_w:
                return _POWER_SAFETY * norm_w
            lam = norm_w
        else:
            return _POWER_SAFETY * lam
        if lam > 0.0:
            return _POWER_SAFETY * lam
        v = np.roll(v, attempt + 1)  # perturb deterministically, try again
        v[0] = 1.0
        v /= float(np.linalg.norm(v))
    return 0.0
