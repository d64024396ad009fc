"""Constant-step execution of the two-step stage recurrence.

One step from y_prev = y_{n-1} and y_curr = y_n at t_n runs, for j = 1..s,

    v_0 = v_{-1} = a~ y_n + (1 - a~) y_{n-1}
    v_j = m_j v_{j-1} + (1 - m_j) v_{j-2} + h m~_j f(t_n + c_{j-1} h, v_{j-1})
    y_{n+1} = a y_n + b v_s,

with m_1 = 1: 1 v_0 + 0 v_0 is v_0, signed zeros included, so v_1 is
v_0 + h m~_1 f(t_n + c_0 h, v_0) to the bit.  A step evaluates f s times
and keeps three live stage vectors (plus each stage's temporaries) whatever
s is.  The abscissa coefficients c_j sit near a~ - 1 (about 19 at the default
damping): stages sample far ahead of the step, intrinsic to the scheme.

A stage costs numpy call overhead on a small system, not arithmetic, so a
registry model's run is one call of its own.  The rhs of a registry model
(Van der Pol, Robertson, HIRES) carries its lines (``problems._model``),
which read no t, and on a float64 state of its size (``reference._fused``)
``integrate`` runs the whole run in one function generated once per model
(``_stage_loop``): a local per component of y_{n-1}, y_n, v_{j-1}, v_{j-2}
and f, and one stage, the model's lines in place of a call of f, per turn of
its stage loop.  Such a run calls f zero times, builds its stage table once
and makes numpy arrays only at its end.  A Python float is an IEEE double
and the loop keeps numpy's order of operations, so its iterates are
bit-for-bit those of ``step``'s array loop, which every other rhs runs, a
wrapper of a model's rhs included: numpy arrays, the coefficients numpy
float64 scalars, as under NEP 50 a Python float times a float32 array stays
float32 and a numpy float64 does not.  Each f value there must have the
state's shape (``ValueError`` naming the stage).

Every stage vector v_j passes a blow-up guard: it must be free of NaN and
inf and have max-norm at most ``BLOWUP_NORM``, else ``BlowUpError`` names
stage j.  A real 1-D stage first tests its sum of squares against
BLOWUP_NORM^2: v.v for a numpy v, v_0*v_0 + v_1*v_1 + ... in the generated
loop.  The rounded sum is at least every rounded v_i^2, whatever the
summation order, and any NaN, inf or overflow makes it fail; so when it
passes, the max-norm test passes too.  When it fails, or v is complex (v.v
does not conjugate) or not 1-D, the max-norm test decides.  The generated
loop has no max-norm test: at its first stage that fails the sum, v_0
included, it returns, and ``integrate`` runs that step and the rest of the
run through ``step``, which raises the BlowUpError or runs on.  A dot
product that overflows would warn, so ``step`` runs with numpy overflow
warnings off, f's included: an overflow leaves an inf, which the guard
reports as the stage it happened in.
"""
from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass, replace

import numpy as np

from .design import (
    DEFAULT_EPS,
    DesignFailure,
    TwoStepMethod,
    solve_damping,
    stable_interval_length,
)
from .reference import (_fd_jacobian, _fused, _generate, _names, record_key,
                        reference_integrate)

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
_MAX_STEPS = 10**7
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


def _stage_table(method: TwoStepMethod, h: float):
    """(a~, 1 - a~, a, b, stages) of one fused run, as Python floats: stage j
    = 1..s is (m_j, 1 - m_j, h m~_j).  A numpy float64 among them would make
    the loop 2-2.5x slower."""
    m = [1.0, *method.m.tolist()]
    a_t = float(method.a_tilde)
    return (a_t, 1.0 - a_t, float(method.a), float(method.b),
            list(zip(m, [1.0 - m_j for m_j in m], (h * method.m_tilde).tolist())))


@functools.cache
def _stage_loop(rhs):
    """A fused run of ``integrate`` on Python floats, one local per component.

    ``_stage_loop(rhs)(*_stage_table(method, h), n, y_prev, y_curr)`` runs
    the steps k = 1..n-1 from the lists y_0 and y_1 and returns (steps done,
    y_{k-1}, y_k): after n - 1 steps, or where a stage of step k, v_0
    included, fails its sum-of-squares test, for ``integrate`` to go on in
    ``step``.  ``reference._generate`` compiles its source, which depends on
    the model of ``rhs`` alone.  y_{n-1} and y_n live in _p0.. and _q0..,
    v_{j-1} and v_{j-2} in y0.. and _b0..; a turn of the stage loop is one
    stage j, for n = 2 (a tuple assignment of two names builds no tuple)

        for _m, _w, _hm in _stages:
            <the model's lines>
            _b0, y0 = y0, _m*y0 + _w*_b0 + _hm*f0
            _b1, y1 = y1, _m*y1 + _w*_b1 + _hm*f1
            if not y0*y0 + y1*y1 <= 1e+30:
                return _k - 1, [_p0, _p1,], [_q0, _q1,]
    """
    n = rhs.model[2]
    p, q = _names("_p{0}", n), _names("_q{0}", n)
    norm_sq = " + ".join(f"y{i}*y{i}" for i in range(n))
    test = f"if not {norm_sq} <= {_BLOWUP_NORM_SQ!r}:\n    return _k - 1, [{p}], [{q}]\n"
    # The model's lines run as written, as in its rhs.  A float's ** raises
    # OverflowError where numpy's gives inf, but no model line here can: every
    # y_i it reads has passed the sum-of-squares test, |y_i| <= 1e15.  A test
    # that lets larger values through must catch OverflowError here as
    # ``reference._rows`` does.
    stage = (rhs.model[1] + "\n"
             + "".join(f"_b{i}, y{i} = y{i}, _m*y{i} + _w*_b{i} + _hm*f{i}\n" for i in range(n))
             + test)
    body = ("".join(f"y{i} = _b{i} = _a_t*_q{i} + _w_t*_p{i}\n" for i in range(n)) + test
            + "for _m, _w, _hm in _stages:\n"
            + textwrap.indent(stage, " " * 4)
            + "".join(f"_p{i} = _q{i}\n_q{i} = _a_n*_p{i} + _b_s*y{i}\n" for i in range(n)))
    return _generate(rhs, "stage_loop", (
        f"def stage_loop(_a_t, _w_t, _a_n, _b_s, _stages, _n, _y_prev, _y_curr):\n"
        f"    {p} = _y_prev\n"
        f"    {q} = _y_curr\n"
        f"    for _k in range(1, _n):\n"
        f"{textwrap.indent(body, ' ' * 8)}"
        f"    return _n - 1, [{p}], [{q}]\n"))


def step(method: TwoStepMethod, f, t_n: float, y_prev: np.ndarray,
         y_curr: np.ndarray, h: float) -> np.ndarray:
    """Advance from y_prev = y_{n-1} and y_curr = y_n at t_n; returns y_{n+1}.

    Both states pass through ``np.asarray``, so a float or a list serves as
    well as an array, and y_{n+1} is an array (0-d for a scalar).  They must
    have one shape, each value of f must have it too, and h must be positive
    and finite (``ValueError`` otherwise, the states' and h's before any
    call of f).  Stages 1..s start from
    v_{-1} = v_0 with m_1 = 1, and each calls f once: s calls per step,
    whatever f is.  A registry model's rhs raises ``ValueError`` on a state
    of another size.
    """
    y_prev, y_curr = np.asarray(y_prev), np.asarray(y_curr)
    if y_prev.shape != y_curr.shape:
        raise ValueError("y_prev and y_curr must have identical shape")
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got {h}")

    with np.errstate(over="ignore"):
        v_p = v_pp = method.a_tilde * y_curr + (1.0 - method.a_tilde) * y_prev
        _check_stage(v_p, 0, t_n)
        m = np.concatenate(([1.0], method.m))
        coeffs = (m, 1.0 - m, h * method.m_tilde, t_n + method.c * h)
        for j, m_j, w_j, h_mt_j, t_j in zip(range(1, method.s + 1), *coeffs):
            value = f(t_j, v_p)
            if getattr(value, "shape", None) != v_p.shape:
                raise ValueError(f"f returned {type(value).__name__} of shape {np.shape(value)} "
                                 f"for a state of shape {v_p.shape} at stage {j}")
            v = m_j * v_p + w_j * v_pp + h_mt_j * value
            _check_stage(v, j, t_n)
            v_pp, v_p = v_p, v
    return np.asarray(method.a * y_curr + method.b * v_p)


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
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got {h}")
    n = span / h
    if not n <= _MAX_STEPS:  # inf and nan too
        raise ValueError(f"(t_out - t0)/h = {n:g} steps exceed the {_MAX_STEPS:g} cap; increase h")
    n_int = round(n)
    if n_int < 2 or abs(n - n_int) > 1e-8 * max(1.0, abs(n)):
        raise ValueError(f"(t_out - t0)/h = {n!r} must be an integer >= 2: the starter takes "
                         f"the first step, the method the rest; pick h dividing the window")
    return n_int


def integrate(method: TwoStepMethod, problem, h: float, *,
              y1: np.ndarray | None = None) -> RunResult:
    """Run ``method`` over the problem's window with constant step h.

    h must divide the window into n >= 2 steps (``ValueError`` otherwise):
    the starter takes the first and ``method`` the other n - 1.  y_1 comes
    from the reference starter unless supplied; a supplied y_1 must have the
    shape of y_0 (``ValueError`` otherwise).  When the problem carries an
    endpoint reference the max-norm endpoint error is attached.  On
    instability the raised BlowUpError carries the progress counters.  Every
    stage calls ``problem.rhs`` through ``step``, except that a registry
    model's rhs runs the steps in one call of ``_stage_loop``, and the steps
    from one whose sum-of-squares test fails through ``step``; a copy made
    with ``dataclasses.replace(problem, rhs=g)`` calls g.

    A problem with a ``cache_key`` (every registry problem) computes its
    starter once per process, memoized under the key a certified record of
    the starter's schedule would carry (``reference.record_key``: the
    problem's key, the segment (t0, t0 + h, 64), y0, the reference solver's
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

    t0, rhs, k = problem.t0, problem.rhs, 1
    try:
        if _fused(rhs, y_curr):
            done, y_prev, y_curr = _stage_loop(rhs)(*_stage_table(method, h), n,
                                                    y_prev.tolist(), y_curr.tolist())
            k, y_prev, y_curr = k + done, np.array(y_prev), np.array(y_curr)
        for k in range(k, n):
            y_prev, y_curr = y_curr, step(method, rhs, t0 + k * h, y_prev, y_curr, h)
    except BlowUpError as exc:
        exc.steps_done = k - 1
        exc.fevals = starter_evals + (k - 1) * method.s + exc.stage
        raise
    y_end = y_curr

    ref = getattr(problem, "reference", None)
    err = None if ref is None else float(np.max(np.abs(y_end - ref().y)))
    return RunResult(y_end=y_end, steps_taken=n - 1, endpoint_error=err,
                     method_s=method.s, starter_evals=starter_evals)


def _length(s: int, eps: float) -> float:
    """l_s(eps), or -inf where s has no design: no target is reached there."""
    try:
        return stable_interval_length(solve_damping(s, eps))
    except DesignFailure:
        return -math.inf


def select_stages(rho: float, h: float, eps: float = DEFAULT_EPS) -> int:
    """Smallest stage count s >= 2 with a design whose l_s(eps) >= h * rho.

    l_s is the true interval length (``stable_interval_length``), which for
    even s is about 9e-4 shorter than the paper's closed form.  One search
    finds it: seeded at l_s ~ 1.901167 s^2 (eps = 0.05), then re-seeded once
    at the l_s / s^2 measured there, it steps down while l_{s-1} suffices,
    then up while l_s falls short.  l_s rises with s, so a target at or below
    l_2 ends at s = 2.  An s without a design (``DesignFailure``: eps from
    about 0.59 on, at small s) falls short of every target, so the search
    passes over it, and a first seed without one is kept.  At such an s the
    search also solves STAGE_CAP, and raises ``DesignFailure``, naming eps,
    at once when STAGE_CAP has no design either: a scan of s = 2..STAGE_CAP
    at eps = 0.55..0.99 found STAGE_CAP without a design exactly where no s
    has one (from eps ~ 0.6224 on), so the walk up would find none.  Both
    seeds stay below ``STAGE_CAP``; the upward search raises
    ``CapacityError`` when l_STAGE_CAP falls short.
    """
    if rho < 0.0 or not math.isfinite(rho):
        raise ValueError(f"spectral radius must be finite and >= 0, got {rho}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got {h}")
    target = h * rho  # may overflow to inf: the seeds clamp before rounding

    def length(s: int) -> float:
        l_s = _length(s, eps)
        if l_s == -math.inf and _length(STAGE_CAP, eps) == -math.inf:
            raise DesignFailure(
                f"no stage count up to {STAGE_CAP} has a design at eps={eps} "
                f"reaching h * rho = {target:g}; lower eps")
        return l_s

    s = max(2, math.ceil(min(math.sqrt(target / 1.901167), STAGE_CAP - 1)))
    l_s = length(s)
    if l_s > 0.0:
        s = max(2, math.ceil(min(math.sqrt(target * s * s / l_s), STAGE_CAP - 1)))
    while s > 2 and length(s - 1) >= target:
        s -= 1
    while length(s) < target:
        if s == STAGE_CAP:
            raise CapacityError(
                f"h * rho = {target:g} needs more than {STAGE_CAP} stages; "
                f"reduce the step size"
            )
        s += 1
    return s


def estimate_spectral_radius(problem) -> float:
    """Dominant Jacobian eigenvalue magnitude at the problem's start (t0, y0).

    The problem's analytic ``rho_bound`` takes precedence.  Otherwise 1.05
    max |eigvals(J)|, J the forward-difference Jacobian at (t0, y0): n f-evals
    and an O(n^3) eigenvalue call, so a problem too large for a dense J
    should carry ``rho_bound``.  ``ValueError`` if f(t0, y0) or J is not finite.
    """
    t = problem.t0
    bound = getattr(problem, "rho_bound", None)
    if bound is not None:
        return float(bound(t, problem.y0))
    y = np.asarray(problem.y0, dtype=float)
    f0 = problem.rhs(t, y)
    if not np.isfinite(f0).all():
        raise ValueError("f(t0, y0) is not finite: no spectral radius to estimate")
    with np.errstate(over="ignore"):  # an overflow leaves an inf, reported below
        jac = _fd_jacobian(problem.rhs, t, y, f0)
    if not np.isfinite(jac).all():
        raise ValueError("the difference Jacobian of f at (t0, y0) is not finite")
    return 1.05 * float(np.abs(np.linalg.eigvals(jac)).max())
