"""Stiff test problems with their integration windows and certified references.

Van der Pol, Robertson and HIRES run over windows that sit mid-trajectory
(starting at t=0.1, t=1000 and t=20).  Each is built from one window spec:
the classical ODE, the step schedule from its initial data to the window
start, the window end, the endpoint step count and an optional spectral
radius bound.  Window starts and endpoint references (Burgers' too) all come
from ``reference.certified_endpoint``, a step schedule run at base and
doubled step counts, and are cached on disk, so every number is reproducible
in-repo.  The dense windows run the order-5 Radau IIA method, and their
starts and references both carry the base/doubled gap itself as their error
estimate: it bounds the fine run's error for any order >= 1.  The banded
Burgers grid runs the trapezoidal rule, and its reference carries the
order-2 Richardson estimate gap / 3.

Every problem the registry builds (vdpol, rober, hires, burgers, heat1d)
carries a ``cache_key`` naming what its right-hand side computes: the
problem tag (Burgers' and heat1d's grid size) and the model constants
(VDPOL_EPS, BURGERS_MU).  A window's classical ODE carries its window's key.
Every product of the reference solver is keyed by ``reference.record_key``
of that key, the step schedule and the state it starts from (the classical
initial data for a window start), which adds the solver's version and
Newton tolerance.  So a key names everything its product depends on.

Set the environment variable TSRK_CACHE_DIR to relocate the cache.  A record
whose stored key does not match, or that cannot be read as a JSON object
(an empty or truncated file), is recomputed.  ``integrate`` memoizes the
starting value y_1 under the key of its schedule, so a stage hunt at one h
computes y_1 once per process; the memo lives in memory only.
``dataclasses.replace`` keeps the key, as it keeps ``reference``: a copy
whose ``rhs``, ``jac`` or ``jac_bands`` computes something else must set
``cache_key=None``.  A copy with another t0 or y0 needs nothing, since the
memo keys both.  A problem built by hand has no key.

Each small classical model (Van der Pol, Robertson, HIRES) is written once,
as a function from a list of Python floats to a list of Python floats
(``_vdpol_list_rhs``, ``_rober_list_rhs``, ``_hires_list_rhs``): Python
float arithmetic rounds as numpy scalar arithmetic does and costs less per
call.  Its array ``rhs`` is ``np.array(list_rhs(t, y.tolist()))``, and the
problem carries the pair as ``list_rhs``, so that ``integrate`` runs the
stages on lists without converting them to arrays and back.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import reference as refsolver

__all__ = [
    "CACHE_ENV",
    "IvpProblem",
    "ReferenceValue",
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
class IvpProblem:
    """An initial value problem over one output window.

    y0 must be a finite vector; ``dim`` is ``y0.size``, read-only.
    ``jac_bands = (l, u)``, 0 <= l, u < dim, declares that the Jacobian has
    l sub- and u superdiagonals.  ``jac`` then returns it in the ``(l + u +
    1, dim)`` diagonal-ordered storage of ``scipy.linalg.solve_banded``,
    ``ab[u + i - j, j] = J[i, j]`` (entries outside the matrix are zero), and
    the reference solver uses banded LU.  Without it ``jac`` returns the dense
    ``(dim, dim)`` matrix.

    ``cache_key`` names what ``rhs`` and ``jac`` compute, for the keys of
    its reference records and of the memo of starting values in
    ``integrate`` (see the module docstring); with None, the default, every
    run computes its own starting value.

    ``list_rhs = (rhs, g)`` gives ``rhs`` on Python float lists:
    ``g(t, y.tolist())`` equals ``rhs(t, y).tolist()`` bit for bit.
    ``integrate`` calls g in place of rhs only while the problem's ``rhs``
    is the very function the pair names.  ``dataclasses.replace`` keeps the
    pair, so a copy with another ``rhs`` runs that rhs on every stage.  The
    registry sets it for vdpol, rober and hires; with None, the default,
    every stage calls ``rhs``.
    """

    name: str
    rhs: Callable[[float, np.ndarray], np.ndarray]
    t0: float
    y0: np.ndarray
    t_out: float
    jac: Callable[[float, np.ndarray], np.ndarray] | None = None
    rho_bound: Callable[[float, np.ndarray], float] | None = None
    reference: Callable[[], ReferenceValue] | None = None
    jac_bands: tuple[int, int] | None = None
    cache_key: str | None = None
    list_rhs: tuple[Callable, Callable[[float, list], list]] | None = None

    def __post_init__(self):
        y0 = np.ascontiguousarray(self.y0, dtype=float)
        if y0.ndim != 1:
            raise ValueError(f"y0 must be a vector, got shape {y0.shape}")
        if not np.all(np.isfinite(y0)):
            raise ValueError("y0 must be finite")
        if not self.t_out > self.t0:
            raise ValueError(f"need t_out > t0, got [{self.t0}, {self.t_out}]")
        if self.jac_bands is not None:
            if self.jac is None:
                raise ValueError("jac_bands describes jac's storage, but jac is missing")
            lower, upper = self.jac_bands
            if not (0 <= lower < y0.size and 0 <= upper < y0.size):
                raise ValueError(
                    f"jac_bands must satisfy 0 <= l, u < {y0.size}, got {self.jac_bands}"
                )
        y0.setflags(write=False)
        object.__setattr__(self, "y0", y0)

    @property
    def dim(self) -> int:
        return self.y0.size


# ---------------------------------------------------------------------------
# disk cache for reference-solver products

def cache_dir() -> Path:
    root = os.environ.get(CACHE_ENV)
    path = Path(root) if root else Path.home() / ".cache" / "tsrk"
    path.mkdir(parents=True, exist_ok=True)
    return path


_memory_cache: dict[str, dict] = {}


def _cached(key: str, compute: Callable[[], dict]) -> dict:
    """Fetch a JSON-serializable record by key, from the file named by
    ``reference.record_name(key)``, which a new solver version rewrites.

    A file that cannot be read or parsed, that holds no JSON object, or
    whose stored key differs from ``key`` is recomputed and rewritten.  Each
    writer writes its own temporary file and renames it into place, so
    concurrent writers of one key never interleave.
    """
    if key in _memory_cache:
        return _memory_cache[key]
    digest = hashlib.sha1(refsolver.record_name(key).encode()).hexdigest()[:12]
    folder = cache_dir()
    path = folder / f"{key.split('|')[0]}_{digest}.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):  # missing, unreadable, truncated, not UTF-8
        record = None
    if not isinstance(record, dict) or record.get("key") != key:
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


def _certified(problem: IvpProblem, schedule, y_from: np.ndarray) -> ReferenceValue:
    """Fine endpoint of ``schedule`` from ``y_from``, cached under the
    problem's ``cache_key``; its estimate is the base/doubled gap."""
    key = refsolver.record_key(problem.cache_key, schedule, y_from)

    def compute() -> dict:
        fine, gap = refsolver.certified_endpoint(problem, schedule, y_from)
        return {"y": fine.tolist(), "diff": gap}

    rec = _cached(key, compute)
    return ReferenceValue(y=np.array(rec["y"]), estimate=rec["diff"])


# ---------------------------------------------------------------------------
# Van der Pol

def _square(x: float) -> float:
    """x ** 2 rounded as numpy scalars round it (libm pow), inf on overflow.

    Python's float power raises OverflowError where numpy returns inf; a
    diverging Newton iterate of the reference solver relies on the inf.
    """
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _array_form(list_rhs):
    """The array right-hand side of a model written on Python float lists."""
    return lambda t, y: np.array(list_rhs(t, y.tolist()))


def _vdpol_list_rhs(t, y):
    y1, y2 = y
    return [y2, ((1.0 - _square(y1)) * y2 - y1) / VDPOL_EPS]


_vdpol_rhs = _array_form(_vdpol_list_rhs)


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

def _rober_list_rhs(t, y):
    y1, y2, y3 = y
    r1 = 0.04 * y1
    r2 = 1e4 * y2 * y3
    r3 = 3e7 * _square(y2)
    return [-r1 + r2, r1 - r2 - r3, r3]


_rober_rhs = _array_form(_rober_list_rhs)


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


def _hires_list_rhs(t, y):
    y1, y2, y3, y4, y5, y6, y7, y8 = y
    f7 = 280.0 * y6 * y8 - 1.81 * y7
    return [
        -1.71 * y1 + 0.43 * y2 + 8.32 * y3 + 0.0007,
        1.71 * y1 - 8.75 * y2,
        -10.03 * y3 + 0.43 * y4 + 0.035 * y5,
        8.32 * y2 + 1.71 * y3 - 1.12 * y4,
        -1.745 * y5 + 0.43 * y6 + 0.43 * y7,
        -280.0 * y6 * y8 + 0.69 * y4 + 1.71 * y5 - 0.43 * y6 + 0.69 * y7,
        f7,
        -f7,
    ]


_hires_rhs = _array_form(_hires_list_rhs)


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

    ``ode`` returns (rhs, its list form, jac, initial data, model constants)
    when called, so that it reads the module's current values; ``start`` is
    the step schedule from the initial data to the window start.
    """

    ode: Callable[[], tuple]
    start: tuple
    t_out: float
    endpoint_steps: int
    rho_bound: Callable | None = None


_WINDOWS = {
    # The t=0 transient has width ~VDPOL_EPS, so the start schedule resolves
    # it with a dense leading segment before striding across the smooth phase.
    "vdpol": _Window(
        lambda: (_vdpol_rhs, _vdpol_list_rhs, _vdpol_jac, [2.0, 0.0],
                 f"eps={VDPOL_EPS!r}"),
        start=((0.0, 1e-4, 200), (1e-4, 0.1, 250)), t_out=0.6,
        endpoint_steps=500),
    "rober": _Window(
        lambda: (_rober_rhs, _rober_list_rhs, _rober_jac, [1.0, 0.0, 0.0], ""),
        start=((0.0, 1.0, 100), (1.0, 30.0, 200), (30.0, 1000.0, 600)),
        t_out=2000.0, endpoint_steps=500, rho_bound=_rober_rho_bound),
    "hires": _Window(
        lambda: (_hires_rhs, _hires_list_rhs, _hires_jac, _HIRES_Y0, ""),
        start=((0.0, 20.0, 500),), t_out=270.0, endpoint_steps=625),
}


def _classical(name: str) -> IvpProblem:
    """The classical ODE of a window on [0, window start], keyed as its window."""
    if name not in _WINDOWS:
        raise ValueError(f"no cached window start for problem {name!r}")
    rhs, list_rhs, jac, y0, model = _WINDOWS[name].ode()
    return IvpProblem(name=name, rhs=rhs, t0=0.0, y0=y0,
                      t_out=_WINDOWS[name].start[-1][1], jac=jac,
                      cache_key=f"{name}|{model}", list_rhs=(rhs, list_rhs))


def window_start_info(name: str) -> ReferenceValue:
    """The cached window-start state, with its base/doubled gap as estimate."""
    ode = _classical(name)
    return _certified(ode, _WINDOWS[name].start, ode.y0)


def _windowed(name: str) -> IvpProblem:
    """The windowed problem, with its certified endpoint reference."""
    window = _WINDOWS[name]
    ode = _classical(name)
    start = _certified(ode, window.start, ode.y0)
    schedule = ((ode.t_out, window.t_out, window.endpoint_steps),)

    def reference() -> ReferenceValue:
        return _certified(ode, schedule, start.y)

    return replace(ode, t0=ode.t_out, y0=start.y, t_out=window.t_out,
                   rho_bound=window.rho_bound, reference=reference)


# ---------------------------------------------------------------------------
# Burgers (method of lines)

def burgers(n_interior: int = 500) -> IvpProblem:
    """Viscous Burgers u_t = mu u_xx - (u^2/2)_x on (0, 1), Dirichlet zero walls.

    Second-order central differences of the conservative form.  Initial
    profile u(x, 0) = 1.5 x (1-x)^2 and window [0, 2.5], the classical
    mildly-stiff configuration.  The Jacobian is tridiagonal and returned in
    banded storage.
    """
    if n_interior < 10:
        raise ValueError(f"grid must have at least 10 interior points, got {n_interior}")
    n = int(n_interior)
    dx = 1.0 / (n + 1)
    x = np.linspace(dx, 1.0 - dx, n)
    mu = BURGERS_MU

    def rhs(t, u):
        up = np.zeros(n + 2)
        up[1:-1] = u
        diff = (up[2:] - 2.0 * up[1:-1] + up[:-2]) / dx**2
        adv = (up[2:] ** 2 - up[:-2] ** 2) / (4.0 * dx)
        return mu * diff - adv

    def jac(t, u):
        # (u^2/2)_x puts u_{i+1} on the superdiagonal and u_{i-1} below.
        ab = np.zeros((3, n))
        ab[1] = -2.0 * mu / dx**2
        ab[0, 1:] = mu / dx**2 - u[1:] / (2.0 * dx)
        ab[2, :-1] = mu / dx**2 + u[:-1] / (2.0 * dx)
        return ab

    u0 = 1.5 * x * (1.0 - x) ** 2

    def rho_bound(t, u):
        return 4.0 * mu / dx**2 + float(np.max(np.abs(u))) / dx

    def reference() -> ReferenceValue:
        ref = _certified(problem, ((0.0, 2.5, 1500),), u0)
        return replace(ref, estimate=ref.estimate / 3.0)

    problem = IvpProblem(
        name="burgers", rhs=rhs, t0=0.0, y0=u0, t_out=2.5,
        jac=jac, rho_bound=rho_bound, reference=reference, jac_bands=(1, 1),
        cache_key=f"burgers_n{n}_cons|mu={mu!r}",
    )
    return problem


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

    u0 = np.sin(np.pi * x)
    rho = 4.0 * math.sin(n * math.pi / (2.0 * (n + 1))) ** 2 / dx**2

    def reference() -> ReferenceValue:
        return ReferenceValue(y=heat1d_exact_state(n, t_out, u0), estimate=1e-14)

    return IvpProblem(
        name="heat1d", rhs=rhs, t0=0.0, y0=u0, t_out=float(t_out),
        jac=lambda t, u: lap, rho_bound=lambda t, u: rho, reference=reference,
        jac_bands=(1, 1), cache_key=f"heat1d_n{n}",
    )


PROBLEMS: dict[str, Callable[[], IvpProblem]] = {
    "vdpol": vdpol,
    "rober": rober,
    "hires": hires,
    "burgers": burgers,
    "heat1d": heat1d,
}
