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
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .chebyshev import cheb_t_derivs

__all__ = [
    "DEFAULT_EPS",
    "DesignFailure",
    "DesignInput",
    "DampingSolution",
    "StabilityPair",
    "TwoStepMethod",
    "solve_damping",
    "build_damped_pair",
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


@dataclass(frozen=True)
class DesignInput:
    """Stage count and damping parameter for one method design."""

    s: int
    eps: float
    eta: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.s, (int, np.integer)) or isinstance(self.s, bool):
            raise ValueError(f"stage count must be an integer, got {self.s!r}")
        if self.s < 2:
            raise ValueError(
                f"stage count must be >= 2 (the recurrence form needs at least "
                f"one interior stage), got {self.s}"
            )
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"damping parameter must lie in (0, 1), got {self.eps!r}")
        object.__setattr__(self, "s", int(self.s))
        object.__setattr__(self, "eta", 1.0 - self.eps)


@dataclass(frozen=True)
class DampingSolution:
    """Solved triple (alpha, omega, beta) plus the achieved residual."""

    alpha: float
    omega: float
    beta: float
    input: DesignInput
    residual: float
    iterations: int = 0


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


@lru_cache(maxsize=None)
def solve_damping(inp: DesignInput, tol: float = _NEWTON_TOL,
                  max_iter: int = _NEWTON_MAX_ITER) -> DampingSolution:
    """Newton-solve the damping system from the guess (eta, 1 + eps/s^2, 1 + eps).

    Converges in a handful of iterations for every tested stage count.  The
    residual target is ``tol``; for very large s the evaluation of T_s through
    the recurrence has a rounding floor that grows roughly like s^2 * eps_mach,
    so a stalled iterate below that floor is accepted and the achieved
    residual is recorded on the solution.

    Cached: a design is pure, and stage selection and every method build
    read the same few solutions.
    """
    s, eps = inp.s, inp.eps
    eta2 = inp.eta**2
    floor = max(tol, s**2 * 1e-15)

    v = np.array([inp.eta, 1.0 + eps / s**2, 1.0 + eps])
    best_v, best_r = v.copy(), math.inf
    stalled = 0
    iterations = 0
    for iterations in range(max_iter + 1):
        f, jac = _system(s, eta2, v)
        r = float(np.max(np.abs(f)))
        if r < best_r * (1.0 - 1e-3):
            stalled = 0
        else:
            stalled += 1
        if r < best_r:
            best_r, best_v = r, v.copy()
        if best_r < tol or stalled >= 3 or iterations == max_iter:
            break
        try:
            delta = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise DesignFailure(
                f"singular Jacobian in damping solve (s={s}, eps={eps})",
                residual=best_r,
            ) from exc
        v = v - delta

    if best_r >= tol and best_r > floor:
        raise DesignFailure(
            f"damping solve did not converge (s={s}, eps={eps}): "
            f"residual {best_r:.3e} after {iterations} iterations",
            residual=best_r,
        )
    alpha, omega, beta = best_v
    return DampingSolution(float(alpha), float(omega), float(beta), inp, best_r,
                           iterations)


_FACTORIALS = np.array([math.factorial(k) for k in range(35)], dtype=float)


@dataclass(frozen=True)
class StabilityPair:
    """Evaluators for the polynomial pair (R1, R0).

    The undamped pair is the degenerate member alpha = omega = beta = eta = 1:

        R1 = 1 + T_s(1 + mu/s^2),  R0 = -T_s(1 + mu/s^2).
    """

    s: int
    alpha: float
    omega: float
    beta: float
    eta: float
    source: str  # "damped" or "undamped"
    solution: DampingSolution | None = None

    def shifted(self, mu):
        return self.omega + self.beta * mu / self.s**2

    def char_polys(self, mu):
        """(R1(mu), R0(mu)); mu may be scalar or ndarray, real or complex."""
        t = cheb_t_derivs(self.s, self.shifted(mu), order=0)[0]
        return self.alpha * (1.0 + t), -(self.eta**2) * t

    def derivs(self, mu: float, order: int = 3) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives 0..order of R1 and R0 at mu (chain rule through T_s)."""
        t = cheb_t_derivs(self.s, self.shifted(mu), order=order)
        scale = (self.beta / self.s**2) ** np.arange(order + 1)
        r1 = self.alpha * scale * t
        r1[0] = self.alpha * (1.0 + t[0])
        r0 = -(self.eta**2) * scale * t
        return r1, r0

    def taylor_coefficients(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """mu-monomial coefficients r1_j, r0_j for j = 0..count-1."""
        d1, d0 = self.derivs(0.0, order=count - 1)
        fact = _FACTORIALS[:count]
        return d1 / fact, d0 / fact

    def monomial_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Full coefficient vectors of R1 and R0 (testing aid, s <= 30 only)."""
        if self.s > 30:
            raise ValueError(
                f"full monomial extraction is supported for s <= 30, got s={self.s}"
            )
        return self.taylor_coefficients(self.s + 1)


def build_damped_pair(sol: DampingSolution) -> StabilityPair:
    """Stability pair of a solved damping triple."""
    return StabilityPair(
        s=sol.input.s,
        alpha=sol.alpha,
        omega=sol.omega,
        beta=sol.beta,
        eta=sol.input.eta,
        source="damped",
        solution=sol,
    )


def build_undamped_pair(s: int) -> StabilityPair:
    """Undamped pair R1 = 1 + T_s(1 + mu/s^2), R0 = -T_s(1 + mu/s^2)."""
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or s < 1:
        raise ValueError(f"stage count must be an integer >= 1, got {s!r}")
    return StabilityPair(
        s=int(s), alpha=1.0, omega=1.0, beta=1.0, eta=1.0, source="undamped"
    )


def error_constant(pair: StabilityPair) -> float:
    """Local error constant C_s from the leading mu-expansion coefficients.

    C_s = 8/6 - (r1_0/6 + r1_1/2 + r1_2 + r1_3 + r0_3).  Coefficients past
    the polynomial degree vanish identically, so small s needs no special
    casing.  For the undamped pair this reduces to 1/3 + 1/(6 s^2).
    """
    r1, r0 = pair.taylor_coefficients(4)
    return float(8.0 / 6.0 - (r1[0] / 6.0 + r1[1] / 2.0 + r1[2] + r1[3] + r0[3]))


def stability_length(sol: DampingSolution) -> float:
    """The paper's closed-form negative-real-axis interval length,

        l_s = s^2 * (omega + cosh(arccosh((1 + alpha)/(alpha + eta^2)) / s)) / beta.

    It solves the zeta = -1 crossing T_s(omega + beta mu / s^2) =
    -(1 + alpha)/(alpha + eta^2), which exists only for odd s.  It is exact
    for odd s and about 9e-4 too long for even s (see
    ``stable_interval_length``).  The paper's table, the method file and
    ``TwoStepMethod.l_s`` all carry this value.
    """
    s = sol.input.s
    eta2 = sol.input.eta**2
    arg = (1.0 + sol.alpha) / (sol.alpha + eta2)
    if arg < 1.0:
        raise DesignFailure(
            f"stability length undefined: (1 + alpha)/(alpha + eta^2) = {arg} < 1"
        )
    return s**2 * (sol.omega + math.cosh(math.acosh(arg) / s)) / sol.beta


def stable_interval_length(sol: DampingSolution) -> float:
    """True negative-real-axis stability interval length of the damped pair.

    Equal to ``stability_length`` for odd s.  For even s, T_s(-omega) =
    T_s(omega), so at mu = -2 omega s^2 / beta the pair takes its mu = 0
    values and zeta = 1 is a root again.  Past that point T exceeds
    T_s(omega), the characteristic polynomial at zeta = 1 is
    1 - alpha - T (alpha - eta^2) < 0, and a root lies above 1.  The interval
    is therefore min(closed form, 2 omega s^2 / beta) for even s, about 9e-4
    shorter than the closed form.  Stage selection uses this length.
    """
    l_closed = stability_length(sol)
    s = sol.input.s
    if s % 2:
        return l_closed
    return min(l_closed, 2.0 * sol.omega * s**2 / sol.beta)


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
        """(R1(mu), R0(mu)) through the stage recurrence.

        Polynomial in mu, hence valid for complex arguments and the route all
        complex-plane stability evaluation takes.  Seeds are R~1_0 = a~,
        R~0_0 = 1 - a~ and R~i_1 = R~i_0 * (1 + m~_1 mu); then
        R~i_j = (m_j + m~_j mu) R~i_{j-1} + (1 - m_j) R~i_{j-2}.
        """
        mu = np.asarray(mu)
        ta = self.a_tilde
        lin = 1.0 + self.m_tilde[0] * mu
        p1_prev = ta + np.zeros_like(lin)
        p0_prev = (1.0 - ta) + np.zeros_like(lin)
        p1 = ta * lin
        p0 = (1.0 - ta) * lin
        for j in range(2, self.s + 1):
            w = self.m[j - 2] + self.m_tilde[j - 1] * mu
            q = 1.0 - self.m[j - 2]
            p1_prev, p1 = p1, w * p1 + q * p1_prev
            p0_prev, p0 = p0, w * p0 + q * p0_prev
        return self.a + self.b * p1, self.b * p0

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "eps": self.eps,
            "a": self.a,
            "a_tilde": self.a_tilde,
            "b": self.b,
            "m": self.m.tolist(),
            "m_tilde": self.m_tilde.tolist(),
            "c": self.c.tolist(),
            "l_s": self.l_s,
            "err_const": self.err_const,
            "order": 2,
            "steps": 2,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TwoStepMethod":
        return cls(
            s=int(data["s"]),
            eps=float(data["eps"]),
            a=float(data["a"]),
            a_tilde=float(data["a_tilde"]),
            b=float(data["b"]),
            m=np.array(data["m"], dtype=float),
            m_tilde=np.array(data["m_tilde"], dtype=float),
            c=np.array(data["c"], dtype=float),
            l_s=float(data["l_s"]),
            err_const=float(data["err_const"]),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "TwoStepMethod":
        return cls.from_dict(json.loads(Path(path).read_text()))


def build_method(sol: DampingSolution) -> TwoStepMethod:
    """Recurrence-form coefficients of a solved design.

    a = alpha, b = (alpha - eta^2) T_s(omega), a~ = alpha/(alpha - eta^2),
    m~_1 = beta/(omega s^2) and, for j >= 2,

        m_j = 2 omega T_{j-1}(omega) / T_j(omega),
        m~_j = 2 (beta/s^2) T_{j-1}(omega) / T_j(omega),

    with the abscissa coefficients following c_0 = a~ - 1,
    c_1 = a~ - 1 + m~_1, c_j = m_j c_{j-1} + (1 - m_j) c_{j-2} + m~_j.
    """
    s = sol.input.s
    alpha, omega, beta = sol.alpha, sol.omega, sol.beta
    eta2 = sol.input.eta**2

    # T_0..T_s at omega; omega > 1 keeps every T_j >= 1.
    t = np.empty(s + 1)
    t[0], t[1] = 1.0, omega
    for j in range(2, s + 1):
        t[j] = 2.0 * omega * t[j - 1] - t[j - 2]
    if np.any(t <= 0.0):
        raise DesignFailure(
            f"non-positive T_j(omega) encountered (s={s}, omega={omega})"
        )

    d = alpha - eta2
    a = alpha
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
        eps=sol.input.eps,
        a=a,
        a_tilde=a_tilde,
        b=b,
        m=m,
        m_tilde=m_tilde,
        c=c,
        l_s=stability_length(sol),
        err_const=error_constant(build_damped_pair(sol)),
    )


def design_method(s: int, eps: float = DEFAULT_EPS) -> TwoStepMethod:
    """Solve and build the s-stage method."""
    return build_method(solve_damping(DesignInput(s, eps)))
