"""Stiff test problems with their integration windows and certified references.

Van der Pol, Robertson and HIRES run over windows that sit mid-trajectory
(starting at t=0.1, t=1000 and t=20).  Each is built from one window spec:
the classical ODE, the step schedule from its initial data to the window
start, the window end, the endpoint step count and an optional spectral
radius bound.  Window starts and endpoint references (Burgers' too) all come
from ``reference.certified_endpoint``, a trapezoidal step schedule run at
base and doubled step counts, and are cached on disk, so every number is
reproducible in-repo.  A start carries the base/doubled gap, a reference the
order-2 Richardson estimate gap / 3.

Set the environment variable TSRK_CACHE_DIR to relocate the cache.  A cache
key names everything its record depends on: the problem, the step schedule,
a hash of the state it starts from (the classical initial data for a window
start), the reference solver's version and Newton tolerance, and the model
constants (VDPOL_EPS, BURGERS_MU).  A record whose stored key does not match
is recomputed.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import reference as refsolver

__all__ = [
    "CACHE_ENV",
    "IvpProblem",
    "ReferenceValue",
    "StartInfo",
    "PROBLEMS",
    "vdpol",
    "rober",
    "hires",
    "burgers",
    "heat1d",
    "heat1d_exact_state",
    "cache_dir",
    "window_start_info",
]

CACHE_ENV = "TSRK_CACHE_DIR"

VDPOL_EPS = 1e-6
BURGERS_MU = 0.005


@dataclass(frozen=True)
class ReferenceValue:
    """A reference endpoint with its certified error estimate."""

    y: np.ndarray
    estimate: float


@dataclass(frozen=True)
class StartInfo:
    """A cached window-start state with its self-consistency check."""

    y: np.ndarray
    diff: float  # max-norm gap between the base and step-doubled runs
    estimate: float  # diff / 3 (order-2 Richardson)


@dataclass(frozen=True)
class IvpProblem:
    """An initial value problem over one output window.

    ``jac_bands = (l, u)`` declares that the Jacobian has l sub- and u
    superdiagonals.  ``jac`` then returns it in the ``(l + u + 1, dim)``
    diagonal-ordered storage of ``scipy.linalg.solve_banded``,
    ``ab[u + i - j, j] = J[i, j]`` (entries outside the matrix are zero), and
    the reference solver uses banded LU.  Without it ``jac`` returns the dense
    ``(dim, dim)`` matrix.
    """

    name: str
    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    t0: float
    y0: np.ndarray
    t_out: float
    jac: Callable[[float, np.ndarray], np.ndarray] | None = None
    rho_bound: Callable[[float, np.ndarray], float] | None = None
    reference: Callable[[], ReferenceValue] | None = None
    jac_bands: tuple[int, int] | None = None

    def __post_init__(self):
        y0 = np.ascontiguousarray(self.y0, dtype=float)
        if y0.ndim != 1 or y0.size != self.dim:
            raise ValueError(f"y0 must be a vector of length {self.dim}")
        if not np.all(np.isfinite(y0)):
            raise ValueError("y0 must be finite")
        if not self.t_out > self.t0:
            raise ValueError(f"need t_out > t0, got [{self.t0}, {self.t_out}]")
        if self.jac_bands is not None:
            if self.jac is None:
                raise ValueError("jac_bands describes jac's storage, but jac is missing")
            lower, upper = self.jac_bands
            if not (0 <= lower < self.dim and 0 <= upper < self.dim):
                raise ValueError(
                    f"jac_bands must satisfy 0 <= l, u < {self.dim}, got {self.jac_bands}"
                )
        y0.setflags(write=False)
        object.__setattr__(self, "y0", y0)


# ---------------------------------------------------------------------------
# disk cache for reference-solver products

def cache_dir() -> Path:
    root = os.environ.get(CACHE_ENV)
    path = Path(root) if root else Path.home() / ".cache" / "tsrk"
    path.mkdir(parents=True, exist_ok=True)
    return path


_memory_cache: dict[str, dict] = {}


def _cached(key: str, compute: Callable[[], dict]) -> dict:
    """Fetch a JSON-serializable record by content-addressed key.

    A file whose stored key differs from ``key`` is recomputed and rewritten.
    Each writer writes its own temporary file and renames it into place, so
    concurrent writers of one key never interleave.
    """
    if key in _memory_cache:
        return _memory_cache[key]
    digest = hashlib.sha1(key.encode()).hexdigest()[:12]
    folder = cache_dir()
    path = folder / f"{key.split('|')[0]}_{digest}.json"
    record = json.loads(path.read_text()) if path.exists() else None
    if record is None or record.get("key") != key:
        record = compute()
        record["key"] = key
        fd, tmp = tempfile.mkstemp(dir=folder, prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
    _memory_cache[key] = record
    return record


@dataclass(frozen=True)
class _RawOde:
    """Bare ODE for the reference solver (no window attached)."""

    rhs: Callable
    jac: Callable | None
    y0: np.ndarray
    jac_bands: tuple[int, int] | None = None
    model: str = ""  # the model constants the solution depends on, for cache keys


def _certified(name: str, raw: _RawOde, schedule,
               y_from: np.ndarray) -> tuple[np.ndarray, float]:
    """Fine endpoint and base/doubled gap of ``schedule`` from ``y_from``, cached."""
    # Results change with the solver's version or Newton tolerance: key both.
    key = (f"{name}|{schedule!r}|{hashlib.sha1(y_from.tobytes()).hexdigest()[:10]}|"
           f"trap-v{refsolver.SOLVER_VERSION}|tol={refsolver.NEWTON_TOL!r}|{raw.model}")

    def compute() -> dict:
        fine, gap = refsolver.certified_endpoint(raw, schedule, y_from)
        return {"y": fine.tolist(), "diff": gap}

    rec = _cached(key, compute)
    return np.array(rec["y"]), rec["diff"]


# ---------------------------------------------------------------------------
# Van der Pol

def _vdpol_rhs(t, y):
    return np.array([y[1], ((1.0 - y[0] ** 2) * y[1] - y[0]) / VDPOL_EPS])


def _vdpol_jac(t, y):
    return np.array([
        [0.0, 1.0],
        [(-2.0 * y[0] * y[1] - 1.0) / VDPOL_EPS, (1.0 - y[0] ** 2) / VDPOL_EPS],
    ])


def vdpol() -> IvpProblem:
    """Stiff Van der Pol over the smooth window [0.1, 0.6]."""
    return _windowed("vdpol")


# ---------------------------------------------------------------------------
# Robertson kinetics

def _rober_rhs(t, y):
    r1 = 0.04 * y[0]
    r2 = 1e4 * y[1] * y[2]
    r3 = 3e7 * y[1] ** 2
    return np.array([-r1 + r2, r1 - r2 - r3, r3])


def _rober_jac(t, y):
    return np.array([
        [-0.04, 1e4 * y[2], 1e4 * y[1]],
        [0.04, -1e4 * y[2] - 6e7 * y[1], -1e4 * y[1]],
        [0.0, 6e7 * y[1], 0.0],
    ])


def _rober_rho_bound(t, y):
    """Gershgorin bound on the stiff row, with y3 <= sum(y) = 1 (mass).

    The spectral radius grows along the window as y3 rises, so a bound
    evaluated only at the window start would be overtaken mid-run; using the
    conserved mass keeps it valid for the whole trajectory.
    """
    total = float(y[0] + y[1] + y[2])
    return 0.04 + 1e4 * total + (6e7 + 1e4) * float(y[1])


def rober() -> IvpProblem:
    """Robertson kinetics over the slow window [1000, 2000]."""
    return _windowed("rober")


# ---------------------------------------------------------------------------
# HIRES

_HIRES_Y0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0057])


def _hires_rhs(t, y):
    y1, y2, y3, y4, y5, y6, y7, y8 = y
    f7 = 280.0 * y6 * y8 - 1.81 * y7
    return np.array([
        -1.71 * y1 + 0.43 * y2 + 8.32 * y3 + 0.0007,
        1.71 * y1 - 8.75 * y2,
        -10.03 * y3 + 0.43 * y4 + 0.035 * y5,
        8.32 * y2 + 1.71 * y3 - 1.12 * y4,
        -1.745 * y5 + 0.43 * y6 + 0.43 * y7,
        -280.0 * y6 * y8 + 0.69 * y4 + 1.71 * y5 - 0.43 * y6 + 0.69 * y7,
        f7,
        -f7,
    ])


def _hires_jac(t, y):
    y6, y8 = y[5], y[7]
    jac = np.zeros((8, 8))
    jac[0, 0:3] = [-1.71, 0.43, 8.32]
    jac[1, 0:2] = [1.71, -8.75]
    jac[2, 2:5] = [-10.03, 0.43, 0.035]
    jac[3, 1:4] = [8.32, 1.71, -1.12]
    jac[4, 4:7] = [-1.745, 0.43, 0.43]
    jac[5, 3] = 0.69
    jac[5, 4] = 1.71
    jac[5, 5] = -280.0 * y8 - 0.43
    jac[5, 6] = 0.69
    jac[5, 7] = -280.0 * y6
    jac[6, 5] = 280.0 * y8
    jac[6, 6] = -1.81
    jac[6, 7] = 280.0 * y6
    jac[7, 5] = -280.0 * y8
    jac[7, 6] = 1.81
    jac[7, 7] = -280.0 * y6
    return jac


def hires() -> IvpProblem:
    """HIRES over the spike-free window [20, 270]."""
    return _windowed("hires")


# ---------------------------------------------------------------------------
# windows of the classical problems

@dataclass(frozen=True)
class _Window:
    """A window of a classical stiff ODE that starts mid-trajectory.

    ``ode`` builds the classical problem when called, so that it reads the
    module's current right-hand sides, initial data and model constants;
    ``start`` is the step schedule from its initial data to the window start.
    """

    ode: Callable[[], _RawOde]
    start: tuple
    t_out: float
    endpoint_steps: int
    rho_bound: Callable | None = None


_WINDOWS = {
    # The t=0 transient has width ~VDPOL_EPS, so the start schedule resolves
    # it with a dense leading segment before striding across the smooth phase.
    "vdpol": _Window(
        lambda: _RawOde(_vdpol_rhs, _vdpol_jac, np.array([2.0, 0.0]),
                        model=f"eps={VDPOL_EPS!r}"),
        start=((0.0, 1e-4, 8000), (1e-4, 0.1, 10000)), t_out=0.6,
        endpoint_steps=20000),
    "rober": _Window(
        lambda: _RawOde(_rober_rhs, _rober_jac, np.array([1.0, 0.0, 0.0])),
        start=((0.0, 1.0, 4000), (1.0, 30.0, 8000), (30.0, 1000.0, 24000)),
        t_out=2000.0, endpoint_steps=20000, rho_bound=_rober_rho_bound),
    "hires": _Window(
        lambda: _RawOde(_hires_rhs, _hires_jac, _HIRES_Y0),
        start=((0.0, 20.0, 20000),), t_out=270.0, endpoint_steps=25000),
}


def window_start_info(name: str) -> StartInfo:
    """Self-consistency record of a cached window-start state."""
    if name not in _WINDOWS:
        raise ValueError(f"no cached window start for problem {name!r}")
    raw = _WINDOWS[name].ode()
    y, diff = _certified(name, raw, _WINDOWS[name].start, raw.y0)
    return StartInfo(y=y, diff=diff, estimate=diff / 3.0)


def _windowed(name: str) -> IvpProblem:
    """The windowed problem, with its certified endpoint reference."""
    window = _WINDOWS[name]
    raw = window.ode()
    start = window_start_info(name)
    t0 = window.start[-1][1]
    schedule = ((t0, window.t_out, window.endpoint_steps),)

    def reference() -> ReferenceValue:
        y, diff = _certified(name, raw, schedule, start.y)
        return ReferenceValue(y=y, estimate=diff / 3.0)

    return IvpProblem(
        name=name, dim=raw.y0.size, rhs=raw.rhs, t0=t0, y0=start.y,
        t_out=window.t_out, jac=raw.jac, rho_bound=window.rho_bound,
        reference=reference,
    )


# ---------------------------------------------------------------------------
# Burgers (method of lines)

def burgers(n_interior: int = 500, conservative: bool = True) -> IvpProblem:
    """Viscous Burgers u_t = mu u_xx - u u_x on (0, 1), Dirichlet zero walls.

    Second-order central differences; the advection term defaults to the
    conservative form (u^2/2)_x, with the non-conservative central form
    available for sensitivity checks.  Initial profile u(x, 0) = 1.5 x (1-x)^2
    and window [0, 2.5], the classical mildly-stiff configuration.  The
    Jacobian is tridiagonal and returned in banded storage.
    """
    if n_interior < 10:
        raise ValueError(f"grid must have at least 10 interior points, got {n_interior}")
    n = int(n_interior)
    dx = 1.0 / (n + 1)
    x = np.linspace(dx, 1.0 - dx, n)
    mu = BURGERS_MU

    def padded(u):
        up = np.zeros(n + 2)
        up[1:-1] = u
        return up

    def rhs(t, u):
        up = padded(u)
        diff = (up[2:] - 2.0 * up[1:-1] + up[:-2]) / dx**2
        if conservative:
            adv = (up[2:] ** 2 - up[:-2] ** 2) / (4.0 * dx)
        else:
            adv = u * (up[2:] - up[:-2]) / (2.0 * dx)
        return mu * diff - adv

    def jac(t, u):
        # (u^2/2)_x puts u_{i+1} on the superdiagonal; u u_x puts u_i there
        # and the central slope on the diagonal.
        ab = np.zeros((3, n))
        ab[1] = -2.0 * mu / dx**2
        if conservative:
            upper, lower = u[1:], u[:-1]
        else:
            upper, lower = u[:-1], u[1:]
            up = padded(u)
            ab[1] -= (up[2:] - up[:-2]) / (2.0 * dx)
        ab[0, 1:] = mu / dx**2 - upper / (2.0 * dx)
        ab[2, :-1] = mu / dx**2 + lower / (2.0 * dx)
        return ab

    u0 = 1.5 * x * (1.0 - x) ** 2

    def rho_bound(t, u):
        return 4.0 * mu / dx**2 + float(np.max(np.abs(u))) / dx

    raw = _RawOde(rhs, jac, u0, jac_bands=(1, 1), model=f"mu={mu!r}")
    tag = f"burgers_n{n}_{'cons' if conservative else 'noncons'}"

    def reference() -> ReferenceValue:
        y, diff = _certified(tag, raw, ((0.0, 2.5, 1500),), u0)
        return ReferenceValue(y=y, estimate=diff / 3.0)

    return IvpProblem(
        name="burgers", dim=n, rhs=rhs, t0=0.0, y0=u0, t_out=2.5,
        jac=jac, rho_bound=rho_bound, reference=reference, jac_bands=(1, 1),
    )


# ---------------------------------------------------------------------------
# 1-D heat equation (linear calibration problem)

def _heat1d_eigen(n: int):
    """Eigenvalues and sine modes of the n-point tridiagonal Laplacian."""
    dx = 1.0 / (n + 1)
    x = np.linspace(dx, 1.0 - dx, n)
    k = np.arange(1, n + 1)
    eigvals = -4.0 * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2 / dx**2
    modes = np.sin(np.outer(k, x) * np.pi)  # orthogonal with weight 2/(n+1)
    return eigvals, modes


def heat1d_exact_state(n_interior: int, t: float, u_start: np.ndarray) -> np.ndarray:
    """Exact solution of the discrete heat system at time t from u_start."""
    n = int(n_interior)
    eigvals, modes = _heat1d_eigen(n)
    coeff = (2.0 / (n + 1)) * modes @ np.asarray(u_start, dtype=float)
    return (coeff * np.exp(eigvals * t)) @ modes


def heat1d(n_interior: int = 50, t_out: float = 0.1) -> IvpProblem:
    """u_t = u_xx on (0, 1), Dirichlet zero walls, u(x, 0) = sin(pi x).

    The reference endpoint is the exact solution of the *discrete* system via
    the known eigenpairs of the tridiagonal Laplacian, so time-integration
    error is measured cleanly, free of spatial discretization error.
    """
    if n_interior < 4:
        raise ValueError(f"grid must have at least 4 interior points, got {n_interior}")
    n = int(n_interior)
    dx = 1.0 / (n + 1)
    x = np.linspace(dx, 1.0 - dx, n)

    def rhs(t, u):
        up = np.zeros(n + 2)
        up[1:-1] = u
        return (up[2:] - 2.0 * up[1:-1] + up[:-2]) / dx**2

    lap = np.zeros((3, n))  # tridiagonal Laplacian in banded storage
    lap[0, 1:] = 1.0 / dx**2
    lap[1] = -2.0 / dx**2
    lap[2, :-1] = 1.0 / dx**2
    lap.setflags(write=False)

    def jac(t, u):
        return lap

    u0 = np.sin(np.pi * x)
    rho = 4.0 * math.sin(n * math.pi / (2.0 * (n + 1))) ** 2 / dx**2

    def reference() -> ReferenceValue:
        return ReferenceValue(y=heat1d_exact_state(n, t_out, u0), estimate=1e-14)

    return IvpProblem(
        name="heat1d", dim=n, rhs=rhs, t0=0.0, y0=u0, t_out=float(t_out),
        jac=jac, rho_bound=lambda t, u: rho, reference=reference,
        jac_bands=(1, 1),
    )


PROBLEMS: dict[str, Callable[[], IvpProblem]] = {
    "vdpol": vdpol,
    "rober": rober,
    "hires": hires,
    "burgers": burgers,
    "heat1d": heat1d,
}
