"""Design of damped two-step stability polynomial pairs and method coefficients.

The pair

    R1(mu) = alpha * (1 + T_s(omega + beta * mu / s^2))
    R0(mu) = -eta^2 * T_s(omega + beta * mu / s^2)

drives everything: the triple (alpha, omega, beta) is pinned down by the
preconsistency condition R1(0) + R0(0) = 1 together with the two
second-order conditions on the mu-expansion coefficients,

    r1_0 + r1_1 + r0_1 = 2,
    r1_0 / 2 + r1_1 + r1_2 + r0_2 = 2,

where r^i_j = d^j R^i / d mu^j (0) / j!.  The three residuals are evaluated
in exactly this derivative form: every term is O(1) for all stage counts,
which is what lets plain double precision carry the solve out to s = 1000.
(The equivalent form obtained by eliminating T'' through the Chebyshev ODE
carries 1/(1 - omega^2) factors that grow like s^2 and ruin the residual
floor.)

From a solved triple the module produces the runnable recurrence-form
coefficient set (a, a~, b, m_j, m~_j, c_j), the paper's closed-form
stability interval length, the true (parity-aware) interval length and the
error constant.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import secrets
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .chebyshev import _cheb_t_real, cheb_t_derivs

__all__ = [
    "DEFAULT_EPS",
    "DesignFailure",
    "StabilityPair",
    "TwoStepMethod",
    "solve_damping",
    "build_undamped_pair",
    "error_constant",
    "stability_length",
    "stable_interval_length",
    "build_method",
    "design_method",
]

DEFAULT_EPS = 0.05

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100


class DesignFailure(RuntimeError):
    """The damping system could not be solved to the required residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def _system(s: int, eta2: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and analytic Jacobian of the design system at (alpha, omega, beta)."""
    alpha, omega, beta = v
    t = cheb_t_derivs(s, omega, order=3)
    th = beta / s**2
    d = alpha - eta2
    one_t = 1.0 + t[0]
    f = np.array(
        [
            alpha * one_t - eta2 * t[0] - 1.0,
            alpha * one_t + d * th * t[1] - 2.0,
            alpha * one_t / 2.0 + alpha * th * t[1] + d * th**2 * t[2] / 2.0 - 2.0,
        ]
    )
    # Rows differentiate the residuals; T', T'', T''' make the omega column.
    jac = np.array(
        [
            [one_t, d * t[1], 0.0],
            [one_t + th * t[1], alpha * t[1] + d * th * t[2], d * t[1] / s**2],
            [
                one_t / 2.0 + th * t[1] + th**2 * t[2] / 2.0,
                alpha * t[1] / 2.0 + alpha * th * t[2] + d * th**2 * t[3] / 2.0,
                alpha * t[1] / s**2 + d * th * t[2] / s**2,
            ],
        ]
    )
    return f, jac


_FACTORIALS = np.array([math.factorial(k) for k in range(35)], dtype=float)


@dataclass(frozen=True)
class StabilityPair:
    """The polynomial pair (R1, R0) of one design, with its evaluators.

    ``solve_damping`` returns it with the achieved residual and Newton
    iteration count.  The undamped pair is the degenerate member
    alpha = omega = beta = 1, eps = 0:

        R1 = 1 + T_s(1 + mu/s^2),  R0 = -T_s(1 + mu/s^2).
    """

    s: int
    alpha: float
    omega: float
    beta: float
    eps: float
    residual: float = 0.0
    iterations: int = 0

    @property
    def eta(self) -> float:
        return 1.0 - self.eps

    def char_polys(self, mu):
        """(R1(mu), R0(mu)); mu may be scalar or ndarray, real or complex.

        Real mu that evaluates in float64 (integer and float32 mu are
        promoted to it) takes T_s in closed form.  Complex and longdouble mu
        take the recurrence, which has no branch cut.  Where T_s overflows,
        far outside the domain, it is +-inf on the real axis and inf or nan
        off it, without a warning; either way the point counts as outside.
        """
        mu = np.asarray(mu)
        real = np.result_type(mu.dtype, np.float64) == np.float64
        if real:
            mu = mu.astype(np.float64, copy=False)
        x = self.omega + self.beta * mu / self.s**2
        with np.errstate(over="ignore", invalid="ignore"):
            t = _cheb_t_real(self.s, x) if real else cheb_t_derivs(self.s, x, order=0)[0]
            return self.alpha * (1.0 + t), -(self.eta**2) * t

    def taylor_coefficients(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """mu-monomial coefficients r1_j, r0_j for j = 0..count-1.

        Derivatives of R1 and R0 at mu = 0 by the chain rule through T_s,
        divided by j!.  ``count`` must lie in 1..35, the length of the
        factorial table.
        """
        if not 1 <= count <= len(_FACTORIALS):
            raise ValueError(f"count must be in 1..{len(_FACTORIALS)}, got {count}")
        t = cheb_t_derivs(self.s, self.omega, order=count - 1)
        scale = (self.beta / self.s**2) ** np.arange(count)
        r1 = self.alpha * scale * t
        r1[0] = self.alpha * (1.0 + t[0])
        r0 = -(self.eta**2) * scale * t
        fact = _FACTORIALS[:count]
        return r1 / fact, r0 / fact


# Typed: a cached s = 5 must not let s = 5.0 past the integer check.
@lru_cache(maxsize=None, typed=True)
def solve_damping(s: int, eps: float = DEFAULT_EPS) -> StabilityPair:
    """Newton-solve the damping system from the guess (eta, 1 + eps/s^2, 1 + eps).

    Converges in a handful of iterations for every tested stage count.  The
    residual target is ``_NEWTON_TOL``; for very large s the evaluation of
    T_s through the recurrence has a rounding floor that grows roughly like
    s^2 * eps_mach, so a stalled iterate below that floor is accepted and the
    achieved residual is recorded on the pair.

    A solved omega < 1 at s >= 3 (eps above about 0.59) claims an interval
    on which the pair is not stable, and eps so small that eta rounds to 1
    leaves no method: both raise ``DesignFailure``.

    Cached: a design is pure, and stage selection and every method build
    read the same few solutions.
    """
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
        raise ValueError(f"stage count must be an integer, got {s!r}")
    if s < 2:
        raise ValueError(
            f"stage count must be >= 2 (the recurrence form needs at least "
            f"one interior stage), got {s}"
        )
    if not 0.0 < eps < 1.0:
        raise ValueError(f"damping parameter must lie in (0, 1), got {eps!r}")
    s, eta = int(s), 1.0 - eps
    eta2 = eta**2
    floor = max(_NEWTON_TOL, s**2 * 1e-15)

    v = np.array([eta, 1.0 + eps / s**2, 1.0 + eps])
    best_v, best_r = v.copy(), math.inf
    stalled = 0
    # An iterate may overflow as eps nears 1; the non-finite check below
    # stops the solve and the residual check judges the best iterate.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(_NEWTON_MAX_ITER + 1):
            f, jac = _system(s, eta2, v)
            r = float(np.max(np.abs(f)))
            if r < best_r * (1.0 - 1e-3):
                stalled = 0
            else:
                stalled += 1
            if r < best_r:
                best_r, best_v = r, v.copy()
            if best_r < _NEWTON_TOL or stalled >= 3 or iterations == _NEWTON_MAX_ITER:
                break
            try:
                delta = np.linalg.solve(jac, f)
            except np.linalg.LinAlgError as exc:
                raise DesignFailure(
                    f"singular Jacobian in damping solve (s={s}, eps={eps})",
                    residual=best_r,
                ) from exc
            v = v - delta
            if not np.all(np.isfinite(v)):
                break  # diverged (eps near 1); the check below judges best_v

    if best_r >= _NEWTON_TOL and best_r > floor:
        raise DesignFailure(
            f"damping solve did not converge (s={s}, eps={eps}): "
            f"residual {best_r:.3e} after {iterations} iterations",
            residual=best_r,
        )
    alpha, omega, beta = best_v.tolist()
    if not alpha > eta2:  # eta rounds to 1: build_method divides by alpha - eta^2
        raise DesignFailure(
            f"damping parameter too small (s={s}, eps={eps}): alpha - eta^2 = "
            f"{alpha - eta2!r}, so the method is undefined; raise eps", residual=best_r)
    if omega < 1.0 and s >= 3:
        # T_s(omega) < 1, and T_s reaches 1 again inside the claimed interval,
        # where a root leaves the unit disc.  T_2 peaks at the ends of [-omega, omega].
        raise DesignFailure(
            f"design not stable on its interval (s={s}, eps={eps}): omega = "
            f"{omega!r} < 1; lower eps", residual=best_r)
    return StabilityPair(s, alpha, omega, beta, eps, best_r, iterations)


def build_undamped_pair(s: int) -> StabilityPair:
    """Undamped pair R1 = 1 + T_s(1 + mu/s^2), R0 = -T_s(1 + mu/s^2)."""
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or s < 1:
        raise ValueError(f"stage count must be an integer >= 1, got {s!r}")
    return StabilityPair(s=int(s), alpha=1.0, omega=1.0, beta=1.0, eps=0.0)


def error_constant(pair: StabilityPair) -> float:
    """Local error constant C_s from the leading mu-expansion coefficients.

    C_s = 8/6 - (r1_0/6 + r1_1/2 + r1_2 + r1_3 + r0_3).  Coefficients past
    the polynomial degree vanish identically, so small s needs no special
    casing.  For the undamped pair this reduces to 1/3 + 1/(6 s^2).
    """
    r1, r0 = pair.taylor_coefficients(4)
    return float(8.0 / 6.0 - (r1[0] / 6.0 + r1[1] / 2.0 + r1[2] + r1[3] + r0[3]))


def stability_length(pair: StabilityPair) -> float:
    """The paper's closed-form negative-real-axis interval length,

        l_s = s^2 * (omega + cosh(arccosh((1 + alpha)/(alpha + eta^2)) / s)) / beta.

    It solves the zeta = -1 crossing T_s(omega + beta mu / s^2) =
    -(1 + alpha)/(alpha + eta^2), which exists only for odd s.  It is exact
    for odd s and about 9e-4 too long for even s (see
    ``stable_interval_length``).  The paper's table, the method file and
    ``TwoStepMethod.l_s`` all carry this value.
    """
    s = pair.s
    arg = (1.0 + pair.alpha) / (pair.alpha + pair.eta**2)
    if arg < 1.0:
        raise DesignFailure(
            f"stability length undefined: (1 + alpha)/(alpha + eta^2) = {arg} < 1"
        )
    return s**2 * (pair.omega + math.cosh(math.acosh(arg) / s)) / pair.beta


def stable_interval_length(pair: StabilityPair) -> float:
    """True negative-real-axis stability interval length of the damped pair.

    Equal to ``stability_length`` for odd s.  For even s, T_s(-omega) =
    T_s(omega), so at mu = -2 omega s^2 / beta the pair takes its mu = 0
    values and zeta = 1 is a root again.  Past that point T exceeds
    T_s(omega), the characteristic polynomial at zeta = 1 is
    1 - alpha - T (alpha - eta^2) < 0, and a root lies above 1.  The interval
    is therefore min(closed form, 2 omega s^2 / beta) for even s, about 9e-4
    shorter than the closed form.  Stage selection uses this length.
    """
    l_closed = stability_length(pair)
    s = pair.s
    if s % 2:
        return l_closed
    return min(l_closed, 2.0 * pair.omega * s**2 / pair.beta)


@dataclass(frozen=True)
class TwoStepMethod:
    """Recurrence-form coefficient set of one designed method.

    ``m`` holds m_j for j = 2..s, ``m_tilde`` holds m~_j for j = 1..s and
    ``c`` holds the stage abscissa coefficients c_0..c_{s-1}.
    """

    s: int
    eps: float
    a: float
    a_tilde: float
    b: float
    m: np.ndarray
    m_tilde: np.ndarray
    c: np.ndarray
    l_s: float
    err_const: float

    def __post_init__(self):
        for name, length in (("m", self.s - 1), ("m_tilde", self.s), ("c", self.s)):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.shape != (length,):
                raise ValueError(
                    f"{name} must have length {length} for s={self.s}, "
                    f"got shape {arr.shape}"
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def char_polys(self, mu):
        """(R1(mu), R0(mu)) = (a + b a~ P_s(mu), b (1 - a~) P_s(mu)) at finite mu.

        P_s is the stage polynomial, ``integrator.step``'s v_s = P_s(mu) v_0
        on y' = lambda y: P_j = (m_j + m~_j mu) P_{j-1} + (1 - m_j) P_{j-2},
        j = 1..s, from P_{-1} = P_0 = 1 with m_1 = 1.  mu may be complex; as
        in a pair's, int and float32 mu evaluate in float64 and complex64 in
        complex128.  Far out, an overflowed P_s (+-inf, or the nan of inf -
        inf) reads as inf, without a warning, as a pair's T_s does on the
        real axis.
        """
        mu = np.asarray(mu)
        mu = mu.astype(np.result_type(mu.dtype, np.float64), copy=False)
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            p_prev = p = 1.0
            for m_j, mt_j in zip([1.0, *self.m.tolist()], self.m_tilde.tolist()):
                p_prev, p = p, (m_j + mt_j * mu) * p + (1.0 - m_j) * p_prev
            p = np.where(np.isfinite(p), p, np.inf)
            return self.a + self.b * self.a_tilde * p, self.b * (1.0 - self.a_tilde) * p

    def to_dict(self) -> dict:
        """The fields in declared order, arrays as lists, then order and steps."""
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return {**data, "order": 2, "steps": 2}

    @classmethod
    def from_dict(cls, data: dict) -> "TwoStepMethod":
        """Inverse of ``to_dict``; ``__post_init__`` coerces the arrays.

        Every scalar and every array entry must be a number, not a bool,
        finite as a double, and ``s`` a whole one (5 or 5.0): ``"s": 2.5``,
        ``"s": "5"``, ``"s": true`` and ``"b": Infinity`` raise
        ``ValueError``, as does a null, bool, text, ``NaN`` or ``Infinity``
        in an array (Python's json reads the last two) or an integer past
        the double range anywhere.
        """
        def number(value):
            try:
                return (not isinstance(value, bool) and isinstance(value, numbers.Real)
                        and math.isfinite(value))
            except OverflowError:  # an int too large for a double
                return False

        def read(field):
            if field.name not in data:
                raise ValueError(f"malformed method record: no {field.name!r}")
            value = data[field.name]
            if field.type not in ("int", "float"):
                # dtype=object keeps each entry as read: a plain asarray lets
                # a null through as NaN and reads true and "1" as 1.0.
                value = np.asarray(value, dtype=object)
                if not all(map(number, value.flat)):
                    raise ValueError(f"malformed method record: {field.name} "
                                     f"holds an entry that is not a finite number")
                return value
            whole = field.type == "int"
            if (not number(value)
                    or whole and not (isinstance(value, numbers.Integral)
                                      or float(value).is_integer())):
                raise ValueError(f"malformed method record: {field.name} must be "
                                 f"{'an integer' if whole else 'a finite number'}, "
                                 f"got {value!r}")
            return int(value) if whole else float(value)

        try:
            return cls(**{f.name: read(f) for f in fields(cls)})
        except TypeError as exc:  # not a JSON object
            raise ValueError(f"malformed method record: {exc}") from exc

    def save(self, path) -> None:
        text = json.dumps(self.to_dict(), indent=2) + "\n"
        _write_replacing(Path(path), lambda fh: fh.write(text))

    @classmethod
    def load(cls, path) -> "TwoStepMethod":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _write_replacing(path: Path, write) -> None:
    """Write ``path`` by ``write(fh)`` on a temporary file in its directory,
    renamed into place: a reader finds the old file or the whole new one,
    never a part, and a failed write leaves the old file (or none) and no
    temporary file.  Concurrent writers of one path never interleave: each
    creates its own randomly named file, exclusively.  ``open`` gives it
    mode 0o666 & ~umask, as it gives any file it creates."""
    tmp = path.with_name(f"{path.stem}{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x")  # raises before the try: a taken name is not ours to unlink
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def build_method(pair: StabilityPair) -> TwoStepMethod:
    """Recurrence-form coefficients of a solved design.

    a = alpha, b = (alpha - eta^2) T_s(omega), a~ = alpha/(alpha - eta^2),
    m~_1 = beta/(omega s^2) and, for j >= 2,

        m_j = 2 omega T_{j-1}(omega) / T_j(omega),
        m~_j = 2 (beta/s^2) T_{j-1}(omega) / T_j(omega),

    with the abscissa coefficients following c_0 = a~ - 1,
    c_1 = a~ - 1 + m~_1, c_j = m_j c_{j-1} + (1 - m_j) c_{j-2} + m~_j.
    """
    s = pair.s
    alpha, omega, beta = pair.alpha, pair.omega, pair.beta
    eta2 = pair.eta**2

    # T_0..T_s at omega; omega >= 1 (solve_damping, s >= 3) keeps every T_j >= 1.
    t = np.empty(s + 1)
    t[0], t[1] = 1.0, omega
    for j in range(2, s + 1):
        t[j] = 2.0 * omega * t[j - 1] - t[j - 2]
    if np.any(t <= 0.0):
        raise DesignFailure(
            f"non-positive T_j(omega) encountered (s={s}, omega={omega})"
        )

    d = alpha - eta2
    b = d * t[s]
    a_tilde = alpha / d
    ratio = t[1:-1] / t[2:]  # T_{j-1}/T_j for j = 2..s
    m = 2.0 * omega * ratio
    m_tilde = np.empty(s)
    m_tilde[0] = beta / (omega * s**2)
    m_tilde[1:] = 2.0 * (beta / s**2) * ratio

    c = np.empty(s)
    c[0] = a_tilde - 1.0
    c[1] = a_tilde - 1.0 + m_tilde[0]
    for j in range(2, s):
        c[j] = m[j - 2] * c[j - 1] + (1.0 - m[j - 2]) * c[j - 2] + m_tilde[j - 1]

    return TwoStepMethod(
        s=s,
        eps=pair.eps,
        a=alpha,
        a_tilde=a_tilde,
        b=b,
        m=m,
        m_tilde=m_tilde,
        c=c,
        l_s=stability_length(pair),
        err_const=error_constant(pair),
    )


def design_method(s: int, eps: float = DEFAULT_EPS) -> TwoStepMethod:
    """Solve and build the s-stage method."""
    return build_method(solve_damping(s, eps))
