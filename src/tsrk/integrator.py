"""Constant-step execution of the two-step stage recurrence.

One step from (y_{n-1}, y_n) runs

    v_0 = a~ y_n + (1 - a~) y_{n-1}
    v_1 = v_0 + h m~_1 f(t_n + c_0 h, v_0)
    v_j = m_j v_{j-1} + (1 - m_j) v_{j-2} + h m~_j f(t_n + c_{j-1} h, v_{j-1})
    y_{n+1} = a y_n + b v_s,

costing exactly s right-hand-side evaluations and three rotating stage
vectors regardless of s.  Note the abscissa coefficients c_j sit near
a~ - 1 (about 19 at the default damping): stages sample far ahead of the
step, which is intrinsic to the scheme, not a bug.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .design import (
    DEFAULT_EPS,
    DesignInput,
    TwoStepMethod,
    solve_damping,
    stable_interval_length,
)
from .reference import reference_integrate

__all__ = [
    "BLOWUP_NORM",
    "STAGE_CAP",
    "BlowUpError",
    "CapacityError",
    "StepState",
    "RunResult",
    "step",
    "integrate",
    "starter_y1",
    "select_stages",
    "estimate_spectral_radius",
]

BLOWUP_NORM = 1e15
STAGE_CAP = 2048


class BlowUpError(RuntimeError):
    """A stage left the finite range: the run is unstable (or truly exploding).

    Out of ``integrate`` it carries ``steps_done``, the two-step applications
    completed, and ``fevals``, all f evaluations so far, the starter's too.
    """

    def __init__(self, stage: int, t: float, steps_done: int = 0, fevals: int = 0):
        super().__init__(
            f"non-finite or oversized stage value (stage {stage}, t={t:g})"
        )
        self.stage = stage
        self.t = t
        self.steps_done = steps_done
        self.fevals = fevals


class CapacityError(RuntimeError):
    """select_stages hit the stage-count cap."""


@dataclass(frozen=True)
class StepState:
    """Two consecutive solution values and the step size."""

    t_n: float
    y_prev: np.ndarray  # y_{n-1}
    y_curr: np.ndarray  # y_n
    h: float

    def __post_init__(self):
        if np.shape(self.y_prev) != np.shape(self.y_curr):
            raise ValueError("y_prev and y_curr must have identical shape")
        if not self.h > 0.0:
            raise ValueError(f"step size must be positive, got {self.h}")


@dataclass(frozen=True)
class RunResult:
    """Endpoint state and accounting of one constant-step integration."""

    y_end: np.ndarray
    steps_taken: int  # two-step applications
    stage_evals: int  # f evaluations inside the stage recurrence
    endpoint_error: float | None
    method_s: int
    starter_evals: int = 0
    reference_estimate: float | None = None


def _check_stage(v: np.ndarray, stage: int, t: float) -> None:
    if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > BLOWUP_NORM:
        raise BlowUpError(stage, t)


def step(method: TwoStepMethod, f, state: StepState) -> np.ndarray:
    """Advance one step; returns y_{n+1}."""
    t, h = state.t_n, state.h
    y_n, y_nm1 = state.y_curr, state.y_prev
    m, mt, c = method.m, method.m_tilde, method.c

    v_pp = method.a_tilde * y_n + (1.0 - method.a_tilde) * y_nm1
    _check_stage(v_pp, 0, t)
    v_p = v_pp + (h * mt[0]) * f(t + c[0] * h, v_pp)
    _check_stage(v_p, 1, t)
    for j in range(2, method.s + 1):
        v = (
            m[j - 2] * v_p
            + (1.0 - m[j - 2]) * v_pp
            + (h * mt[j - 1]) * f(t + c[j - 1] * h, v_p)
        )
        _check_stage(v, j, t)
        v_pp, v_p = v_p, v
    return method.a * y_n + method.b * v_p


def starter_y1(problem, h: float, substeps: int = 64) -> np.ndarray:
    """y_1 = y(t_0 + h) from the implicit reference solver over one step."""
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    return reference_integrate(problem, problem.t0, problem.t0 + h, substeps)


def _step_count(span: float, h: float) -> int:
    n = span / h
    n_int = round(n)
    if n_int < 1 or abs(n - n_int) > 1e-8 * max(1.0, abs(n)):
        raise ValueError(
            f"(t_out - t0)/h = {n!r} must be a positive integer; "
            f"pick h dividing the window exactly"
        )
    return n_int


def integrate(method: TwoStepMethod, problem, h: float, *,
              starter_substeps: int = 64, y1: np.ndarray | None = None) -> RunResult:
    """Run ``method`` over the problem's window with constant step h.

    y_1 comes from the reference starter unless supplied.  When the problem
    carries an endpoint reference the max-norm endpoint error is attached.
    On instability the raised BlowUpError carries the progress counters.
    """
    n = _step_count(problem.t_out - problem.t0, h)
    starter_evals = 0
    if y1 is None:
        def counted(t, y):
            nonlocal starter_evals
            starter_evals += 1
            return problem.rhs(t, y)

        y1 = starter_y1(replace(problem, rhs=counted), h, starter_substeps)
    y_prev, y_curr = np.array(problem.y0, dtype=float), np.array(y1, dtype=float)

    t0 = problem.t0
    for k in range(1, n):
        try:
            y_next = step(method, problem.rhs, StepState(t0 + k * h, y_prev, y_curr, h))
        except BlowUpError as exc:
            exc.steps_done = k - 1
            exc.fevals = starter_evals + (k - 1) * method.s + exc.stage
            raise
        y_prev, y_curr = y_curr, y_next

    err = est = None
    ref = getattr(problem, "reference", None)
    if ref is not None:
        ref_value = ref()
        err = float(np.max(np.abs(y_curr - ref_value.y)))
        est = ref_value.estimate
    return RunResult(
        y_end=y_curr,
        steps_taken=n - 1,
        stage_evals=(n - 1) * method.s,  # step evaluates f once per stage
        endpoint_error=err,
        method_s=method.s,
        starter_evals=starter_evals,
        reference_estimate=est,
    )


def _length(s: int, eps: float) -> float:
    return stable_interval_length(solve_damping(DesignInput(s, eps)))


def select_stages(rho: float, h: float, eps: float = DEFAULT_EPS) -> int:
    """Smallest stage count s >= 2 with l_s(eps) >= h * rho.

    l_s is the true interval length (``stable_interval_length``), which for
    even s is about 9e-4 shorter than the paper's closed form.  Seeds at the
    asymptotic ratio l_s ~ 1.901167 s^2 and adjusts by direct evaluation of
    the interval length.
    """
    if rho < 0.0 or not math.isfinite(rho):
        raise ValueError(f"spectral radius must be finite and >= 0, got {rho}")
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    target = h * rho
    if target <= _length(2, eps):
        return 2
    if target > _length(STAGE_CAP, eps):
        raise CapacityError(
            f"h * rho = {target:g} needs more than {STAGE_CAP} stages; "
            f"reduce the step size"
        )
    s = min(max(2, math.ceil(math.sqrt(target / 1.901167))), STAGE_CAP)
    while s > 2 and _length(s - 1, eps) >= target:
        s -= 1
    while _length(s, eps) < target:
        s += 1
    return s


def estimate_spectral_radius(problem, y: np.ndarray | None = None,
                             t: float | None = None, max_iter: int = 50,
                             safety: float = 1.05) -> float:
    """Dominant Jacobian eigenvalue magnitude near (t, y).

    An analytic bound supplied by the problem takes precedence.  Otherwise a
    nonlinear power iteration on directional differences
    (f(t, y + d v) - f(t, y)) / d is run for at most ``max_iter`` sweeps and
    the estimate is inflated by ``safety``.
    """
    if y is None:
        y = problem.y0
    if t is None:
        t = problem.t0
    bound = getattr(problem, "rho_bound", None)
    if bound is not None:
        return float(bound(t, y))

    y = np.asarray(y, dtype=float)
    f0 = problem.rhs(t, y)
    n = y.size
    delta = math.sqrt(np.finfo(float).eps) * max(float(np.linalg.norm(y)), 1.0)

    # Deterministic start direction; re-seeded with a shifted pattern if the
    # directional difference vanishes.
    v = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    lam = 0.0
    for attempt in range(3):
        for _ in range(max_iter):
            w = (problem.rhs(t, y + delta * v) - f0) / delta
            norm_w = float(np.linalg.norm(w))
            if norm_w == 0.0:
                break
            lam_new = norm_w
            v = w / norm_w
            if abs(lam_new - lam) <= 1e-2 * lam_new:
                lam = lam_new
                return safety * lam
            lam = lam_new
        else:
            return safety * lam
        if lam > 0.0:
            return safety * lam
        v = np.roll(v, attempt + 1)  # perturb deterministically, try again
        v[0] = 1.0
        v /= float(np.linalg.norm(v))
    return 0.0
