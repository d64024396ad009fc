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
carries a ``cache_key``: the problem tag (Burgers' and heat1d's grid size)
and the model constants (VDPOL_EPS, BURGERS_MU), not the model's lines.
A window's classical ODE carries its window's key.  Every product of the
reference solver is keyed by ``reference.record_key`` of that key, the step
schedule and the state it starts from, which adds the solver's version and
Newton tolerance, so a change to a model's lines must bump SOLVER_VERSION.

Each record has one copy, the file ``reference.record_name`` names in the
cache, read at every use; TSRK_CACHE_DIR relocates the cache.  A record
whose stored key does not match, that cannot be read as a JSON object, or
whose y or diff is damaged is recomputed (``_cached``).  ``integrate``
memoizes y_1 under the key of its schedule, so a stage hunt at one h
computes y_1 once per process; the memo lives in memory only.
``dataclasses.replace`` keeps the key, as it keeps ``reference``: a copy
whose ``rhs``, ``jac`` or ``jac_bands`` computes something else must set
``cache_key=None``.  A copy with another t0 or y0 needs nothing, since the
memo keys both.  A problem built by hand has no key.

Each small classical model (Van der Pol, Robertson, HIRES) is its text:
lines from y0..y(n-1) to f0..f(n-1) in the closed grammar of arithmetic
``reference._GRAMMAR`` (``_model`` raises ``ValueError`` on a text outside
it), whose dense Jacobian the complex step derives (``reference._jacobian``).
This module compiles nothing: ``_model`` returns the array ``rhs``, which
carries the text for the fused stage loop and runs it as one row of the
model's row function, ``reference._rows``, which the Radau IIA residual runs
with three rows and the Jacobian with n.  Where a float ``**`` overflows,
``_rows`` runs the rows again on numpy float64 scalars.  The grids of
Burgers, heat1d and the exact heat state come from one builder, ``_grid``.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import reference as refsolver
from .design import _write_replacing

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

    y0 must be a finite, non-empty vector; ``dim`` is ``y0.size``, read-only.
    ``jac_bands = (l, u)``, ints (not bools) with 0 <= l, u < dim, declares
    that the Jacobian has l sub- and u superdiagonals.  ``jac`` then returns
    it in the ``(l + u + 1, dim)`` diagonal-ordered storage of
    ``scipy.linalg.solve_banded``, ``ab[u + i - j, j] = J[i, j]`` (entries
    outside the matrix are zero), and the reference solver uses banded LU.
    Without it ``jac`` returns the dense ``(dim, dim)`` matrix.

    ``cache_key`` names what ``rhs`` and ``jac`` compute, for the keys of
    its reference records and of the memo of starting values in
    ``integrate`` (see the module docstring); with None, the default, every
    run computes its own starting value.

    ``integrate`` calls ``rhs`` on every stage, except the rhs that
    ``_model`` builds for vdpol, rober and hires: its lines run inside the
    stage loop.  A copy with another ``rhs``, a wrapper of the model's
    included, is called on every stage.
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

    def __post_init__(self):
        y0 = np.ascontiguousarray(self.y0, dtype=float)
        if y0.ndim != 1 or y0.size == 0:
            raise ValueError(f"y0 must be a vector with at least one entry, got shape {y0.shape}")
        if not np.all(np.isfinite(y0)):
            raise ValueError("y0 must be finite")
        if not (math.isfinite(self.t0) and math.isfinite(self.t_out) and self.t_out > self.t0):
            raise ValueError(f"need finite t0 < t_out, got [{self.t0}, {self.t_out}]")
        if self.jac_bands is not None:
            if self.jac is None:
                raise ValueError("jac_bands describes jac's storage, but jac is missing")
            bands = self.jac_bands if isinstance(self.jac_bands, (tuple, list)) else ()
            if not (len(bands) == 2 and all(
                    isinstance(b, (int, np.integer)) and not isinstance(b, bool)
                    and 0 <= b < y0.size for b in bands)):
                raise ValueError(f"jac_bands must be two ints with 0 <= l, u < {y0.size}, "
                                 f"got {self.jac_bands!r}")
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


def _cached(key: str, compute: Callable[[], dict]) -> dict:
    """Fetch a record ``{"y": [...], "diff": gap}`` by key from its one copy,
    the file ``reference.record_name(key)`` in ``cache_dir()``, read on every
    call.  One that cannot be read as a JSON object, whose stored key differs,
    whose ``diff`` is not a finite float >= 0 or whose ``y`` is not a
    non-empty list of finite floats (of ``compute.size`` entries, if set) is
    recomputed and rewritten through a temporary file
    (``design._write_replacing``): concurrent writers never interleave.
    """
    path = cache_dir() / f"{refsolver.record_name(key)}.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):  # missing, unreadable, truncated, not UTF-8
        record = None
    y, diff = (record.get("y"), record.get("diff")) if isinstance(record, dict) else (None, None)
    # The set of the entries' types, not a Python loop, checks each one.
    if not (isinstance(y, list) and set(map(type, y)) == {float} and np.isfinite(y).all()
            and len(y) == getattr(compute, "size", len(y)) and type(diff) is float
            and 0.0 <= diff < math.inf and record.get("key") == key):
        record = compute()
        record["key"] = key
        _write_replacing(path, lambda fh: json.dump(record, fh))
    return record


def _certified(problem: IvpProblem, schedule, y_from: np.ndarray) -> ReferenceValue:
    """Fine endpoint of ``schedule`` from ``y_from``, cached under the
    problem's ``cache_key``; its estimate is the base/doubled gap."""
    key = refsolver.record_key(problem.cache_key, schedule, y_from)

    def compute() -> dict:
        fine, gap = refsolver.certified_endpoint(problem, schedule, y_from)
        return {"y": fine.tolist(), "diff": gap}

    compute.size = np.size(y_from)
    rec = _cached(key, compute)
    return ReferenceValue(y=np.array(rec["y"]), estimate=rec["diff"])


# ---------------------------------------------------------------------------
# Van der Pol

def _model(n: int, text: str, name: str = "rhs"):
    """The array right-hand side ``name`` of a model's ``text``, its lines
    from y0..y(n-1) to f0..f(n-1), run as one row of the function
    ``reference._rows`` that its Radau IIA residual runs with three.  It
    carries ``model = (itself, text, n)``, which ``reference._fused`` reads."""
    zero = ([-0.0] * n,)  # y + -0.0 is y for every double: the row is f(y)

    def rhs(t, y):
        return np.array(rows(y.tolist(), zero))

    rhs.__name__ = rhs.__qualname__ = name
    rhs.model = (rhs, text.strip(), n)
    rows = refsolver._rows(rhs)
    return rhs


_vdpol_rhs = _model(2, """
f0 = y1
f1 = ((1.0 - y0 ** 2) * y1 - y0) / VDPOL_EPS
""", "_vdpol_rhs")


_vdpol_jac = refsolver._jacobian(_vdpol_rhs)


def vdpol() -> IvpProblem:
    """Stiff Van der Pol over the smooth window [0.1, 0.6]."""
    return _windowed("vdpol")


# ---------------------------------------------------------------------------
# Robertson kinetics

_rober_rhs = _model(3, """
r1 = 0.04 * y0
r2 = 1e4 * y1 * y2
r3 = 3e7 * y1 ** 2
f0 = -r1 + r2
f1 = r1 - r2 - r3
f2 = r3
""", "_rober_rhs")


_rober_jac = refsolver._jacobian(_rober_rhs)


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


_hires_rhs = _model(8, """
f0 = -1.71 * y0 + 0.43 * y1 + 8.32 * y2 + 0.0007
f1 = 1.71 * y0 - 8.75 * y1
f2 = -10.03 * y2 + 0.43 * y3 + 0.035 * y4
f3 = 8.32 * y1 + 1.71 * y2 - 1.12 * y3
f4 = -1.745 * y4 + 0.43 * y5 + 0.43 * y6
f5 = -280.0 * y5 * y7 + 0.69 * y3 + 1.71 * y4 - 0.43 * y5 + 0.69 * y6
f6 = 280.0 * y5 * y7 - 1.81 * y6
f7 = -f6
""", "_hires_rhs")


_hires_jac = refsolver._jacobian(_hires_rhs)


def hires() -> IvpProblem:
    """HIRES over the spike-free window [20, 270]."""
    return _windowed("hires")


# ---------------------------------------------------------------------------
# windows of the classical problems

@dataclass(frozen=True)
class _Window:
    """A window of a classical stiff ODE that starts mid-trajectory.

    ``ode`` returns (rhs, jac, initial data, model constants) when called,
    so that it reads the module's current values; ``start`` is the step
    schedule from the initial data to the window start.
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
        lambda: (_vdpol_rhs, _vdpol_jac, [2.0, 0.0], f"eps={VDPOL_EPS!r}"),
        start=((0.0, 1e-4, 200), (1e-4, 0.1, 250)), t_out=0.6,
        endpoint_steps=500),
    "rober": _Window(
        lambda: (_rober_rhs, _rober_jac, [1.0, 0.0, 0.0], ""),
        start=((0.0, 1.0, 100), (1.0, 30.0, 200), (30.0, 1000.0, 600)),
        t_out=2000.0, endpoint_steps=500, rho_bound=_rober_rho_bound),
    "hires": _Window(
        lambda: (_hires_rhs, _hires_jac, _HIRES_Y0, ""),
        start=((0.0, 20.0, 500),), t_out=270.0, endpoint_steps=625),
}


def _classical(name: str) -> IvpProblem:
    """The classical ODE of a window on [0, window start], keyed as its window."""
    if name not in _WINDOWS:
        raise ValueError(f"no cached window start for problem {name!r}")
    rhs, jac, y0, model = _WINDOWS[name].ode()
    return IvpProblem(name=name, rhs=rhs, t0=0.0, y0=y0,
                      t_out=_WINDOWS[name].start[-1][1], jac=jac,
                      cache_key=f"{name}|{model}")


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

def _grid(n_interior, least: int):
    """(n, dx, x) of the grid of ``n_interior`` points inside (0, 1);
    ``ValueError`` unless it is a whole number >= least."""
    try:
        n = int(n_interior)
    except (OverflowError, ValueError):  # int() of inf, of nan
        n = None
    if n is None or n != n_interior or n < least:
        raise ValueError(
            f"grid needs a whole number >= {least} of interior points, got {n_interior}")
    dx = 1.0 / (n + 1)
    return n, dx, np.linspace(dx, 1.0 - dx, n)


def burgers(n_interior: int = 500) -> IvpProblem:
    """Viscous Burgers u_t = mu u_xx - (u^2/2)_x on (0, 1), Dirichlet zero walls.

    Second-order central differences of the conservative form.  Initial
    profile u(x, 0) = 1.5 x (1-x)^2 and window [0, 2.5], the classical
    mildly-stiff configuration.  The Jacobian is tridiagonal and returned in
    banded storage.
    """
    n, dx, x = _grid(n_interior, 10)
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

def heat1d_exact_state(n_interior: int, t: float, u_start: np.ndarray) -> np.ndarray:
    """Exact solution of the discrete heat system on ``n_interior`` >= 1
    points at time t from u_start, by the eigenpairs of its Laplacian."""
    n, dx, x = _grid(n_interior, 1)
    k = np.arange(1, n + 1)
    eigvals = -4.0 * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2 / dx**2
    modes = np.sin(np.outer(k, x) * np.pi)  # orthogonal with weight 2/(n+1)
    coeff = (2.0 / (n + 1)) * modes @ np.asarray(u_start, dtype=float)
    return (coeff * np.exp(eigvals * t)) @ modes


def heat1d(n_interior: int = 50, t_out: float = 0.1) -> IvpProblem:
    """u_t = u_xx on (0, 1), Dirichlet zero walls, u(x, 0) = sin(pi x).

    The reference endpoint is the exact solution of the *discrete* system via
    the known eigenpairs of the tridiagonal Laplacian, so time-integration
    error is measured cleanly, free of spatial discretization error.
    """
    n, dx, x = _grid(n_interior, 4)

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
