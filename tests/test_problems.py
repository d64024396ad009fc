"""Test-problem suite: definitions, Jacobians, window starts, references."""
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import calls_of
from hypothesis import given, settings
from hypothesis import strategies as st

import tsrk.problems as problems_mod
import tsrk.reference as reference_mod
from tsrk.design import design_method
from tsrk.integrator import estimate_spectral_radius, integrate
from tsrk.problems import (
    PROBLEMS,
    IvpProblem,
    burgers,
    cache_dir,
    heat1d,
    heat1d_exact_state,
    hires,
    rober,
    vdpol,
    window_start_info,
)
from tsrk.reference import reference_integrate


def fd_jacobian(rhs, t, y, delta=1e-6):
    """Central differences: exact for the quadratic nonlinearities here."""
    jac = np.empty((y.size, y.size))
    for j in range(y.size):
        d = delta * max(abs(y[j]), 1.0)
        yp, ym = y.copy(), y.copy()
        yp[j] += d
        ym[j] -= d
        jac[:, j] = (rhs(t, yp) - rhs(t, ym)) / (2.0 * d)
    return jac


def banded_to_dense(ab, bands):
    """Expand solve_banded storage, ab[u + i - j, j] = J[i, j], to J."""
    lower, upper = bands
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - lower), min(n, i + upper + 1)):
            dense[i, j] = ab[upper + i - j, j]
    return dense


@pytest.mark.parametrize("factory", [lambda: burgers(40), lambda: heat1d(12)],
                         ids=["burgers", "heat1d"])
def test_analytic_jacobian_matches_finite_differences(factory):
    prob = factory()
    y = prob.y0.copy()
    jac = prob.jac(0.0, y)
    fd = fd_jacobian(prob.rhs, 0.0, y)
    assert jac.shape == (sum(prob.jac_bands) + 1, prob.dim)
    jac = banded_to_dense(jac, prob.jac_bands)
    lower, upper = prob.jac_bands
    offset = np.subtract.outer(np.arange(prob.dim), np.arange(prob.dim))
    assert np.all(fd[(offset > lower) | (-offset > upper)] == 0.0)
    scale = max(1.0, float(np.max(np.abs(jac))))
    assert np.max(np.abs(jac - fd)) / scale < 1e-5


GENERIC_STATES = {
    "vdpol": [1.8, -0.9],
    "rober": [0.3, 2e-6, 0.7],
    "hires": [0.01, 0.001, 0.001, 0.01, 0.2, 0.7, 0.005, 5e-5],
}


@pytest.mark.parametrize("where", ["window start", "window end", "generic"])
@pytest.mark.parametrize("name", ["vdpol", "rober", "hires"])
def test_derived_jacobian_matches_finite_differences(name, where):
    # A dense registry model's Jacobian is the complex step of its own text
    # (reference._jacobian, bound to the model's row function), not code of
    # its own; it agrees with central differences at the window start, at
    # the window's endpoint reference and at a generic state, calling no rhs.
    prob = PROBLEMS[name]()
    assert inspect.getclosurevars(prob.jac).nonlocals["rows"] is reference_mod._rows(prob.rhs)
    y = {"window start": prob.y0, "window end": prob.reference().y,
         "generic": np.array(GENERIC_STATES[name])}[where]
    with calls_of(prob.rhs) as calls:
        jac = prob.jac(0.0, y)
    assert calls == [] and jac.shape == (prob.dim, prob.dim)
    scale = max(1.0, float(np.max(np.abs(jac))))
    assert np.max(np.abs(jac - fd_jacobian(prob.rhs, 0.0, y))) / scale < 1e-5


@st.composite
def model_texts(draw):
    """(n, text) of a model inside the grammar of ``reference._generate``:
    up to two named lines, then f0..f(n-1), each an expression of depth <= 3
    over y_i, the earlier names and numbers, whose denominators and bases of
    a fractional power are 1.5 plus a square."""
    n = draw(st.integers(1, 4))
    names = [f"y{i}" for i in range(n)]

    def expr(depth):
        kind = draw(st.sampled_from(["leaf", "-", "+", "*", "/", "**", "sqrt"]))
        if depth == 0 or kind == "leaf":
            return draw(st.sampled_from(names) | st.floats(-2.0, 2.0).map(repr))
        if kind == "-":
            return f"-({expr(depth - 1)})"
        if kind == "**":
            return f"({expr(depth - 1)}) ** {draw(st.sampled_from(['2', '3', '2.0']))}"
        if kind == "sqrt":
            return f"(1.5 + ({expr(depth - 1)}) ** 2) ** 0.5"
        right = expr(depth - 1)
        right = f"(1.5 + ({right}) ** 2)" if kind == "/" else f"({right})"
        return f"({expr(depth - 1)}) {kind} {right}"

    lines = []
    for target in [f"r{k}" for k in range(draw(st.integers(0, 2)))] + [f"f{i}" for i in range(n)]:
        lines.append(f"{target} = {expr(3)}")
        names.append(target)
    return n, "\n".join(lines)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(model_texts(), st.data())
def test_derived_jacobian_of_any_text_in_the_grammar(model, data):
    # Any text of the grammar is analytic in y, so its complex-step Jacobian
    # matches central differences, and it runs the model's row function
    # without a call of the rhs.
    n, text = model
    rhs = problems_mod._model(n, text, "random")
    y = np.array(data.draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)))
    jac_fn = reference_mod._jacobian(rhs)
    with calls_of(rhs) as calls:
        jac = jac_fn(0.0, y)
    assert calls == []
    scale = max(1.0, float(np.max(np.abs(jac))), float(np.max(np.abs(rhs(0.0, y)))))
    assert np.max(np.abs(jac - fd_jacobian(rhs, 0.0, y))) <= 1e-6 * scale


@pytest.mark.parametrize("factory,t_to,steps", [
    (lambda: burgers(40), 2.5, 100),
    (lambda: heat1d(12), 0.1, 40),
])
def test_banded_and_dense_references_agree(monkeypatch, factory, t_to, steps):
    prob = factory()
    dense = dataclasses.replace(
        prob, jac_bands=None,
        jac=lambda t, y: banded_to_dense(prob.jac(t, y), prob.jac_bands))
    log = []  # Newton iterations of every trapezoidal step
    original = reference_mod._trap_step

    def logged(*args):
        y, report = original(*args)
        log.append(report.newton_iters)
        return y, report

    monkeypatch.setattr(reference_mod, "_trap_step", logged)
    y_banded = reference_integrate(prob, 0.0, t_to, steps)
    banded_iters = list(log)
    log.clear()
    y_dense = reference_integrate(dense, 0.0, t_to, steps)
    assert log == banded_iters and len(log) == steps
    assert np.max(np.abs(y_banded - y_dense)) <= 1e-13 * np.max(np.abs(y_dense))


class TestVdpol:
    def test_window(self):
        prob = vdpol()
        assert prob.t0 == 0.1 and prob.t_out == 0.6

    def test_start_state_near_initial_slow_component(self):
        prob = vdpol()
        assert np.all(np.isfinite(prob.y0))
        assert abs(prob.y0[0] - 2.0) < 0.1  # slow component barely moves

    def test_rhs_finite_at_classic_initial_point(self):
        prob = vdpol()
        f = prob.rhs(0.0, np.array([2.0, 0.0]))
        assert np.all(np.isfinite(f))


class TestRober:
    def test_window(self):
        prob = rober()
        assert prob.t0 == 1000.0 and prob.t_out == 2000.0

    def test_rhs_conserves_mass_identically(self):
        prob = rober()
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = np.array([rng.uniform(), 1e-5 * rng.uniform(), rng.uniform()])
            f = prob.rhs(0.0, y)
            # Zero up to rounding of the individual rate terms.
            scale = 0.04 * y[0] + 1e4 * y[1] * y[2] + 3e7 * y[1] ** 2
            assert abs(float(np.sum(f))) <= 8e-16 * max(scale, 1e-300)

    def test_start_state_positive_with_unit_mass(self):
        prob = rober()
        assert np.all(prob.y0 > 0.0)
        assert float(np.sum(prob.y0)) == pytest.approx(1.0, abs=1e-8)

    def test_two_step_run_preserves_mass(self):
        prob = rober()
        rho = estimate_spectral_radius(prob)
        from tsrk.integrator import select_stages

        s = select_stages(rho, 10.0)
        res = integrate(design_method(s, 0.05), prob, 10.0)
        assert float(np.sum(res.y_end)) == pytest.approx(1.0, abs=1e-6)


class TestVdpolRuns:
    def test_stable_run_has_finite_error(self):
        prob = vdpol()
        rho = estimate_spectral_radius(prob)
        from tsrk.integrator import select_stages

        s = select_stages(rho, 0.005)
        res = integrate(design_method(s, 0.05), prob, 0.005)
        assert math.isfinite(res.endpoint_error)
        assert res.endpoint_error < 0.1

    def test_undersized_method_blows_up(self):
        from tsrk.integrator import BlowUpError

        prob = vdpol()
        with pytest.raises(BlowUpError):
            integrate(design_method(3, 0.05), prob, 0.01)


class TestHires:
    def test_dimension_and_window(self):
        prob = hires()
        assert prob.dim == 8
        assert prob.t0 == 20.0 and prob.t_out == 270.0

    def test_start_state_finite_nonnegative(self):
        prob = hires()
        assert np.all(np.isfinite(prob.y0))
        assert np.all(prob.y0 >= 0.0)


class TestBurgers:
    def test_zero_state_is_fixed_point(self):
        prob = burgers(40)
        assert np.array_equal(prob.rhs(0.0, np.zeros(40)), np.zeros(40))

    def test_window_and_parameters(self):
        prob = burgers(40)
        assert prob.t0 == 0.0 and prob.t_out == 2.5
        assert problems_mod.BURGERS_MU == 0.005

    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            burgers(9)

    def test_grid_size_is_a_whole_number(self):
        for size in (10.5, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="grid needs a whole number"):
                burgers(size)
        assert burgers(np.int64(12)).dim == burgers(12.0).dim == 12

    def test_power_iteration_agrees_with_analytic_hint(self):
        prob = burgers(100)
        hint = prob.rho_bound(0.0, prob.y0)
        probed = dataclasses.replace(prob, rho_bound=None)
        estimate = estimate_spectral_radius(probed)
        assert 1.0 / 1.3 < hint / estimate < 1.3

    def test_maximum_principle_on_stable_run(self):
        prob = burgers(80)
        rho = prob.rho_bound(0.0, prob.y0)
        from tsrk.integrator import select_stages

        s = select_stages(rho, 0.05)
        res = integrate(design_method(s, 0.05), prob, 0.05)
        assert float(np.max(np.abs(res.y_end))) <= 1.05 * float(np.max(np.abs(prob.y0)))


class TestHeat1d:
    def test_rhs_linearity(self):
        prob = heat1d(20)
        y = prob.y0
        assert np.allclose(prob.rhs(0.0, 2.0 * y), 2.0 * prob.rhs(0.0, y),
                           rtol=1e-13)

    def test_spectral_radius_closed_form(self):
        n = 50
        prob = heat1d(n)
        dx = 1.0 / (n + 1)
        expected = 4.0 * math.sin(n * math.pi / (2 * (n + 1))) ** 2 / dx**2
        assert prob.rho_bound(0.0, prob.y0) == pytest.approx(expected, rel=1e-14)

    def test_exact_state_matches_trapezoidal_solver(self):
        prob = heat1d(10, t_out=0.05)
        via_solver = reference_integrate(prob, 0.0, 0.05, 4000)
        exact = heat1d_exact_state(10, 0.05, prob.y0)
        assert np.max(np.abs(via_solver - exact)) < 1e-9

    def test_single_mode_decay(self):
        prob = heat1d(30, t_out=0.2)
        ref = prob.reference()
        lam1 = -4.0 * math.sin(math.pi / 62) ** 2 * 31**2
        assert np.allclose(ref.y, math.exp(lam1 * 0.2) * prob.y0, rtol=1e-12)

    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            heat1d(3)

    def test_grid_size_is_a_whole_number(self):
        for size in (10.7, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="grid needs a whole number"):
                heat1d(size)
        assert heat1d(np.int64(12)).dim == heat1d(12.0).dim == 12

    def test_exact_state_grid_size_is_a_whole_number(self):
        # The discrete solution exists on every grid of n >= 1 points.
        for size in (10.5, math.inf, -math.inf, math.nan, 0):
            with pytest.raises(ValueError, match="grid needs a whole number >= 1"):
                heat1d_exact_state(size, 0.01, np.ones(10))
        u = np.array([0.25])
        assert heat1d_exact_state(1, 0.01, u) == pytest.approx(0.25 * math.exp(-8 * 0.01))
        assert (heat1d_exact_state(np.int64(10), 0.01, np.ones(10)).tobytes()
                == heat1d_exact_state(10.0, 0.01, np.ones(10)).tobytes())


# The window records of the trapezoidal reference solver (SOLVER_VERSION 3),
# whose certified errors were at most 6.6e-10: (problem, start or endpoint).
TRAPEZOIDAL_RECORDS = {
    ("vdpol", "start"): [1.9313613205272238, -0.7074176282296996],
    ("vdpol", "end"): [1.4845756932512624, -1.233069882710558],
    ("rober", "start"): [0.33687453025133335, 2.0137023147104582e-06, 0.6631234560463544],
    ("rober", "end"): [0.255551522523243, 1.3655927773074385e-06, 0.7444471118839756],
    ("hires", "start"): [0.005974876891386836, 0.001168251513906982,
                         0.0010803789366561436, 0.010378086209812837,
                         0.18197220688310714, 0.7313948827230747,
                         0.005650063877642575, 4.993612235742391e-05],
    ("hires", "end"): [0.0015143820139194243, 0.00029633363901459083,
                       0.00020975395551104702, 0.0025482066977985836,
                       0.02870801491590677, 0.10975573109335768,
                       0.005383157911685819, 0.00031684208831417245],
}

# Measured when the dense references moved to Radau IIA: 76 factorizations
# and 30 138 right-hand sides; the bounds leave half as much again.
ROBER_COLD_MAX_LU = 115
ROBER_COLD_MAX_RHS = 45_000


class TestWindowReferences:
    @pytest.mark.parametrize("name", ["vdpol", "rober", "hires"])
    def test_records_agree_with_the_trapezoidal_records(self, name):
        start = window_start_info(name)
        ref = PROBLEMS[name]().reference()
        for kind, y in (("start", start.y), ("end", ref.y)):
            old = np.array(TRAPEZOIDAL_RECORDS[name, kind])
            assert np.max(np.abs(y - old)) <= 1e-9, kind
        assert start.estimate <= 1e-11 and ref.estimate <= 1e-11

    def test_hires_endpoint_from_twice_the_steps(self):
        prob = hires()
        ref = prob.reference()
        steps = problems_mod._WINDOWS["hires"].endpoint_steps
        # The record is the fine run, 2 * steps; this one's fine run has 4 * steps.
        finer, _ = reference_mod.certified_endpoint(
            prob, ((prob.t0, prob.t_out, 2 * steps),), prob.y0)
        assert np.max(np.abs(finer - ref.y)) <= max(ref.estimate, 1e-11)

    def test_cold_rober_build_stays_within_its_cost(self, monkeypatch, tmp_path):
        # Deterministic counts, so a slower reference fails here and not
        # only in a timing.
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path))
        factorizations, evaluations = [], []
        lu_factor, rober_rhs = reference_mod.lu_factor, problems_mod._rober_rhs

        def counted_lu(*args):
            factorizations.append(1)
            return lu_factor(*args)

        def counted_rhs(t, y):
            evaluations.append(1)
            return rober_rhs(t, y)

        monkeypatch.setattr(reference_mod, "lu_factor", counted_lu)
        monkeypatch.setattr(problems_mod, "_rober_rhs", counted_rhs)
        rober().reference()
        assert len(list(tmp_path.glob("rober_*.json"))) == 2  # start and endpoint
        assert 0 < len(factorizations) <= ROBER_COLD_MAX_LU
        assert 0 < len(evaluations) <= ROBER_COLD_MAX_RHS


# The seven registry records as the reference solver of SOLVER_VERSION
# ``solver_version`` builds them, with each record's base/doubled gap.  A
# record may move by at most PIN_FRACTION of its gap; a cache keyed by the
# old version would otherwise keep serving the old value.
RECORD_PINS = Path(__file__).with_name("record_pins.json")
PIN_FRACTION = 0.1
REGISTRY_RECORDS = [f"{p} {k}" for p in ("vdpol", "rober", "hires")
                    for k in ("start", "end")] + ["burgers end"]


def registry_record(name):
    """(y, gap) of a registry record named ``"<problem> <start|end>"``."""
    problem, kind = name.split()
    if problem == "burgers":
        ref = burgers().reference()
        return ref.y, 3.0 * ref.estimate  # Burgers' estimate is gap / 3
    ref = window_start_info(problem) if kind == "start" else PROBLEMS[problem]().reference()
    return ref.y, ref.estimate


@pytest.mark.parametrize("name", REGISTRY_RECORDS)
def test_record_holds_its_pin(name):
    pins = json.loads(RECORD_PINS.read_text())
    fix = ("bump reference.SOLVER_VERSION and re-pin "
           "(PYTHONPATH=src python tests/test_problems.py), or undo the change")
    assert pins["solver_version"] == reference_mod.SOLVER_VERSION, (
        f"the pins belong to SOLVER_VERSION {pins['solver_version']}: {fix}")
    pin = pins["records"][name]
    y, _ = registry_record(name)
    moved = float(np.max(np.abs(y - np.array(pin["y"]))))
    assert moved <= PIN_FRACTION * pin["gap"], (
        f"the {name} record moved by {moved:.3g}, over {PIN_FRACTION} of its gap "
        f"{pin['gap']:.3g}, under the same SOLVER_VERSION: {fix}")


class TestStartStateCache:
    @pytest.mark.parametrize("name", ["vdpol", "rober", "hires"])
    def test_self_consistency(self, name):
        info = window_start_info(name)
        assert info.estimate <= 1e-8

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            window_start_info("nope")

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path / "c"))
        assert cache_dir() == tmp_path / "c"
        assert cache_dir().is_dir()

    def test_the_suite_leaves_the_users_cache_alone(self, tmp_path):
        # A cold Robertson window start run by the suite with TSRK_CACHE_DIR
        # unset: its records land under the session's temporary directory,
        # and nothing under ~/.cache/tsrk.
        root = Path(__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != problems_mod.CACHE_ENV}
        env["HOME"] = str(tmp_path / "home")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--basetemp", str(tmp_path / "base"),
             "tests/test_problems.py::TestStartStateCache::test_self_consistency[rober]"],
            cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert list((tmp_path / "base").rglob("rober_*.json"))
        assert not (tmp_path / "home" / ".cache" / "tsrk").exists()

    def test_cached_records_round_trip(self, monkeypatch, tmp_path):
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path))
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return {"y": [1.0, 2.0], "diff": 0.5}

        first = problems_mod._cached("demo|start|x", compute)
        second = problems_mod._cached("demo|start|x", compute)
        assert calls["n"] == 1  # second hit served from disk
        assert first["y"] == second["y"]

    def test_a_new_cache_dir_is_read_and_written(self, monkeypatch, tmp_path):
        # Every call reads the directory TSRK_CACHE_DIR names at that call:
        # no record of another directory is served from memory.
        calls = []

        def compute():
            calls.append(1)
            return {"y": [float(len(calls))], "diff": 0.0}

        path = {}
        for name in ("a", "b", "a"):
            monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path / name))
            path[name] = tmp_path / name / f"{reference_mod.record_name('demo|d')}.json"
            assert problems_mod._cached("demo|d", compute)["y"] == [{"a": 1.0, "b": 2.0}[name]]
        assert len(calls) == 2
        assert json.loads(path["b"].read_text()) == {"y": [2.0], "diff": 0.0, "key": "demo|d"}
        path["a"].write_text(json.dumps({"y": [7.0], "diff": 0.0, "key": "demo|d"}))
        assert problems_mod._cached("demo|d", compute)["y"] == [7.0]
        assert len(calls) == 2

    DAMAGES = {
        "y nan": lambda r: r.update(y=[math.nan] * len(r["y"])),
        "y inf": lambda r: r["y"].__setitem__(0, -math.inf),
        "y missing": lambda r: r.pop("y"),
        "y empty": lambda r: r.update(y=[]),
        "y short": lambda r: r["y"].pop(),
        "y long": lambda r: r["y"].append(0.5),
        "y text": lambda r: r.update(y=str(r["y"])),
        "y of text": lambda r: r.update(y=[str(v) for v in r["y"]]),
        "y nested": lambda r: r.update(y=[r["y"]]),
        "y of ints": lambda r: r.update(y=[1] * len(r["y"])),
        "diff nan": lambda r: r.update(diff=math.nan),
        "diff negative": lambda r: r.update(diff=-1e-9),
        "diff inf": lambda r: r.update(diff=math.inf),
        "diff missing": lambda r: r.pop("diff"),
        "diff text": lambda r: r.update(diff="0.0"),
        "diff true": lambda r: r.update(diff=True),
    }

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_a_damaged_record_is_recomputed_and_rewritten(self, monkeypatch, tmp_path, damage):
        # A record whose key matches but whose y is not a list of finite
        # floats of the start's size, or whose diff is not a finite float
        # >= 0, is recomputed, as an unreadable one is.
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path))
        calls = []

        def compute():
            calls.append(1)
            return {"y": [0.25, -1.5, 1e-300], "diff": 2e-10}

        compute.size = 3  # the start's size, as ``_certified`` sets it
        sound = problems_mod._cached("demo|d", compute)
        path = tmp_path / f"{reference_mod.record_name('demo|d')}.json"
        written = path.read_text()
        record = json.loads(written)
        self.DAMAGES[damage](record)
        path.write_text(json.dumps(record))
        assert problems_mod._cached("demo|d", compute) == sound
        assert len(calls) == 2 and path.read_text() == written
        assert problems_mod._cached("demo|d", compute) == sound and len(calls) == 2

    @pytest.mark.parametrize("damage", ["y nan", "y missing", "y short", "diff nan"])
    def test_a_damaged_reference_is_recomputed(self, monkeypatch, tmp_path, damage):
        # The Robertson endpoint record with a NaN y gave nan errors, and one
        # without y a KeyError; now the reference is recomputed, to its bits.
        expected = rober().reference()  # the records, in the suite's cache
        for path in cache_dir().glob("rober_*.json"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path))
        window = problems_mod._WINDOWS["rober"]
        key = reference_mod.record_key(
            "rober|", ((window.start[-1][1], window.t_out, window.endpoint_steps),),
            window_start_info("rober").y)
        path = tmp_path / f"{reference_mod.record_name(key)}.json"
        written = path.read_text()
        record = json.loads(written)
        self.DAMAGES[damage](record)
        path.write_text(json.dumps(record))
        again = rober().reference()
        assert again.y.tobytes() == expected.y.tobytes()
        assert again.estimate == expected.estimate
        assert path.read_text() == written

    def test_record_name_is_the_file_stem(self):
        key = reference_mod.record_key("demo|eps=1", ((0.0, 1.0, 4),), np.zeros(2))
        content = key.partition("|ref-v")[0]
        assert content != key
        digest = hashlib.sha1(content.encode()).hexdigest()[:12]
        assert reference_mod.record_name(key) == f"demo_{digest}"
        assert reference_mod.record_name("demo|c") == (
            f"demo_{hashlib.sha1(b'demo|c').hexdigest()[:12]}")

    def test_keys_follow_solver_and_model_constants(self, monkeypatch):
        keys = []

        def record_key(key, compute):
            keys.append(key)
            return {"y": [0.0, 0.0], "diff": 0.0, "estimate": 0.0}

        monkeypatch.setattr(problems_mod, "_cached", record_key)

        def current_keys():  # vdpol start, vdpol endpoint, Burgers endpoint
            keys.clear()
            vdpol().reference()
            burgers(12).reference()
            return list(keys)

        base = current_keys()
        assert len(base) == 3
        for module, name, value, changed in [
            (reference_mod, "NEWTON_TOL", 1e-11, {0, 1, 2}),
            (reference_mod, "SOLVER_VERSION", reference_mod.SOLVER_VERSION + 1, {0, 1, 2}),
            (problems_mod, "VDPOL_EPS", 2e-6, {0, 1}),
            (problems_mod, "BURGERS_MU", 0.01, {2}),
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(module, name, value)
                now = current_keys()
            assert {i for i in range(3) if now[i] != base[i]} == changed, name

    def test_start_key_follows_the_classical_start_data(self, monkeypatch):
        keys = []

        def record_key(key, compute):
            keys.append(key)
            return {"y": [0.0] * 8, "diff": 0.0}

        monkeypatch.setattr(problems_mod, "_cached", record_key)
        window_start_info("hires")
        window_start_info("hires")
        monkeypatch.setattr(problems_mod, "_HIRES_Y0",
                            problems_mod._HIRES_Y0 * np.array([1.0] * 7 + [2.0]))
        window_start_info("hires")
        assert keys[0] == keys[1] != keys[2]

    @pytest.mark.parametrize("content", [b"", b'{"y": [1.0], "ke', b"[1, 2]",
                                         b'"text"', b"null", b"\xff\xfe"])
    def test_corrupt_record_is_recomputed(self, monkeypatch, tmp_path, content):
        # Empty, truncated, non-object or undecodable: a miss, rewritten whole.
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path))
        path = tmp_path / f"demo_{hashlib.sha1(b'demo|c').hexdigest()[:12]}.json"
        path.write_bytes(content)
        calls = []

        def compute():
            calls.append(1)
            return {"y": [1.0]}

        record = problems_mod._cached("demo|c", compute)
        assert len(calls) == 1
        assert record == {"y": [1.0], "key": "demo|c"}
        assert json.loads(path.read_text()) == record
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_record_stored_under_other_key_is_recomputed(self, monkeypatch, tmp_path):
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path))
        calls = []

        def compute():
            calls.append(1)
            return {"y": [1.0]}

        problems_mod._cached("demo|k", compute)
        (path,) = tmp_path.glob("demo_*.json")
        path.write_text(json.dumps({"y": [9.0], "key": "demo|stale"}))
        record = problems_mod._cached("demo|k", compute)
        assert len(calls) == 2
        assert record["y"] == [1.0]
        assert json.loads(path.read_text()) == {"y": [1.0], "key": "demo|k"}

    def test_a_solver_bump_rewrites_the_records_own_file(self, monkeypatch, tmp_path):
        # The file is named by the key without its solver part, so a new
        # SOLVER_VERSION replaces the record instead of adding a second file.
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path))
        prob = IvpProblem(name="decay", rhs=lambda t, y: -y, jac=lambda t, y: -np.eye(1),
                          t0=0.0, y0=np.array([1.0]), t_out=1.0, cache_key="decay")
        schedule = ((0.0, 1.0, 4),)
        problems_mod._certified(prob, schedule, prob.y0)
        (path,) = tmp_path.iterdir()
        monkeypatch.setattr(reference_mod, "SOLVER_VERSION", reference_mod.SOLVER_VERSION + 1)
        problems_mod._certified(prob, schedule, prob.y0)
        assert list(tmp_path.iterdir()) == [path]
        key = reference_mod.record_key("decay", schedule, prob.y0)
        assert f"|ref-v{reference_mod.SOLVER_VERSION}|" in key
        assert json.loads(path.read_text())["key"] == key

    def test_writers_use_private_temp_files(self, monkeypatch, tmp_path):
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path))
        stem = f"demo_{hashlib.sha1(b'demo|w').hexdigest()[:12]}"
        shared = tmp_path / f"{stem}.tmp"
        shared.mkdir()  # a writer that used the shared temp name would fail
        moves = []
        real_replace = os.replace

        def replace(src, dst):
            moves.append((Path(src), Path(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        problems_mod._cached("demo|w", lambda: {"y": [1.0]})
        ((src, dst),) = moves
        assert src.parent == tmp_path and src != shared
        assert dst == tmp_path / f"{stem}.json"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([shared.name, dst.name])

        with pytest.raises(TypeError):  # not JSON-serializable: no file is left
            problems_mod._cached("demo|bad", lambda: {"y": object()})
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([shared.name, dst.name])


def _numpy_scalar_rhs(name, y):
    """The classical right-hand sides written with numpy scalar indexing."""
    if name == "rober":
        r1, r2, r3 = 0.04 * y[0], 1e4 * y[1] * y[2], 3e7 * y[1] ** 2
        return np.array([-r1 + r2, r1 - r2 - r3, r3])
    if name == "vdpol":
        return np.array([y[1], ((1.0 - y[0] ** 2) * y[1] - y[0]) / problems_mod.VDPOL_EPS])
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


@pytest.mark.parametrize("name,rhs,dim", [("rober", problems_mod._rober_rhs, 3),
                                          ("vdpol", problems_mod._vdpol_rhs, 2),
                                          ("hires", problems_mod._hires_rhs, 8)])
def test_float_rhs_matches_numpy_scalar_rhs_bit_for_bit(name, rhs, dim):
    # The right-hand sides unpack y.tolist(); Python floats must round as
    # numpy scalars do, overflow to inf included (a diverging Newton iterate).
    # Only the sign of a NaN may differ.
    def bits(f):
        return np.where(np.isnan(f), math.nan, f).tobytes()

    rng = np.random.default_rng(11)
    ys = rng.standard_normal((3000, dim)) * 10.0 ** rng.uniform(-20, 200, (3000, dim))
    ys[:3] = [[math.nan] * dim, [math.inf] * dim, [-1e300] * dim]
    # Signed zeros and subnormals, alone and among normal entries: the rhs
    # adds -0.0 to each entry, which must leave every one of them as it is.
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-308])
    mixed = rng.standard_normal((600, dim))
    chosen = rng.random((600, dim)) < 0.5
    mixed[chosen] = rng.choice(tiny, chosen.sum())
    ys = np.concatenate([ys, np.repeat(tiny[:, np.newaxis], dim, axis=1), mixed])
    with np.errstate(over="ignore", invalid="ignore"):
        for y in ys:
            assert bits(rhs(0.0, y)) == bits(_numpy_scalar_rhs(name, y))


@pytest.mark.parametrize("name", ["vdpol", "rober", "hires"])
def test_the_model_rhs_overflows_to_inf(name):
    # The rhs carries its model's text for the stage loop.  A float square
    # that overflows raises OverflowError, so the rhs evaluates its lines
    # again on numpy scalars and gives inf: a diverging Newton iterate of
    # the reference solver needs the inf.
    prob = PROBLEMS[name]()
    assert prob.rhs.model[0] is prob.rhs
    # y0 ** 2 (vdpol), y1 ** 2 (rober), y5 * y7 (hires) overflow
    value = prob.rhs(0.0, np.full(prob.dim, 1e200))
    assert value.shape == (prob.dim,) and math.isinf(np.abs(value).max())


@pytest.mark.parametrize("line, numpy_scalar", [
    ("f0 = y0**2", lambda y0, y1: y0**2),
    ("f0 = (y0 + y1) ** 2", lambda y0, y1: (y0 + y1) ** 2),
    ("f0 = y0 ** 3 - y1", lambda y0, y1: y0 ** 3 - y1)], ids=["y0**2", "sum ** 2", "y0 ** 3"])
def test_a_model_text_runs_as_written_and_overflows_as_numpy_does(line, numpy_scalar):
    # A float ** that overflows raises OverflowError; the rhs then gives the
    # value on numpy float64 scalars, inf included, whatever the spelling.
    text = f"{line}\nf1 = -y1"
    rhs = problems_mod._model(2, text)
    assert rhs.model == (rhs, text, 2)
    for y in ([1e200, 3.0], [-1e200, 1e200], [2.0, -0.5]):
        y = np.array(y)
        with np.errstate(over="ignore"):
            expected = np.array([numpy_scalar(*y), -y[1]])
        assert rhs(0.0, y).tobytes() == expected.tobytes()
    assert math.isinf(rhs(0.0, np.array([1e200, 3.0]))[0])


@pytest.mark.parametrize("text, name", [
    ("f0 = -t * y0", "t"),
    ("y0 = 2.0 * y0\nf0 = -y0", "y0"),
    ("y0 += 1.0\nf0 = -y0", "y0"),
    ("_k = 2.0\nf0 = -_k * y0", "_k"),
    ("f0 = -_rows * y0", "_rows"),
    ("range = 2.0\nf0 = -range * y0", "range"),
    ("len = 2.0\nf0 = -len * y0", "len"),
], ids=["reads t", "assigns y0", "adds to y0", "assigns _k", "reads _rows", "assigns range",
        "assigns len"])
def test_a_model_text_outside_the_rule_fails_when_built(text, name):
    # The lines run among generated locals that all start with _, in code that
    # reads y0.. and builtins: a text that reads t (a model is autonomous),
    # assigns a y_i or a builtin or names a _ name is refused by _model,
    # before any run, naming the rhs and the name.
    with pytest.raises(ValueError, match=f"^bad's model text uses {name!r}; a model text "
                                         f"reads no t, assigns no y_i or builtin"):
        problems_mod._model(1, text, "bad")


@pytest.mark.parametrize("text, node", [
    ("f0 = -y0\nreturn [0.0]", "return [0.0]"),
    ("f0 = -y0\nyield 1", "yield 1"),
    ("f0 = -y0\nbreak", "break"),
    ("global VDPOL_EPS\nVDPOL_EPS = 1.0\nf0 = -y0", "global VDPOL_EPS"),
    ("VDPOL_EPS = 1.0\nf0 = -y0", "VDPOL_EPS"),
    ("f0 = abs(y0)", "abs"),
    ("import os\nf0 = -y0", "import os"),
    ("def g(): pass\nf0 = -y0", "def g():\n    pass"),
    ("f0 = -y0 + zz", "zz"),
    ("f0 = -r * y0\nr = 2.0", "r"),
    ("f0 = y0 % 2.0", "y0 % 2.0"),
    ("f0 = y0 ** y0", "y0 ** y0"),
    ("f0 = y0 ** True", "True"),
    ("f0 = 1j * y0", "1j"),
    ("f0 = y0 if y0 else 1.0", "y0 if y0 else 1.0"),
    ("r, f0 = 2.0, -y0", "(r, f0)"),
    ("r = f0 = -y0", "r = f0 = -y0"),
    ("r = y0\nr = 2.0 * r\nf0 = -r", "r"),
], ids=["returns", "yields", "breaks", "assigns a global", "assigns a module float", "calls abs", "imports",
        "defines a function", "reads an unknown name", "reads a later name", "takes a remainder",
        "raises to a name", "raises to a bool", "multiplies by 1j", "branches",
        "assigns a tuple", "assigns two names", "binds a name twice"])
def test_a_model_text_outside_the_grammar_fails_when_built(text, node):
    # A model text is a closed grammar of arithmetic assignments, each name
    # bound once: a text that could return early, rebind the module's state,
    # branch, or compute something not analytic in y (which the complex-step
    # Jacobian would differentiate wrongly) is refused by _model before any
    # run, naming its node.
    with pytest.raises(ValueError, match=f"^bad's model text uses {re.escape(repr(node))}; "):
        problems_mod._model(1, text, "bad")
    assert problems_mod.VDPOL_EPS == 1e-6


@pytest.mark.parametrize("n, text, missing", [
    (2, "f0 = -y0", "f1"),
    (1, "", "f0"),
    (3, "f0 = y0\nf2 = y2", "f1"),
])
def test_a_model_text_that_leaves_an_f_unassigned_fails_when_built(n, text, missing):
    with pytest.raises(ValueError, match=f"^bad's model text assigns no '{missing}'; "):
        problems_mod._model(n, text, "bad")


@pytest.mark.parametrize("name", ["vdpol", "rober", "hires"])
def test_the_registry_texts_keep_the_rule(name):
    rhs = getattr(problems_mod, f"_{name}_rhs")
    rebuilt = problems_mod._model(rhs.model[2], rhs.model[1], rhs.__name__)
    y = np.linspace(0.5, 1.5, rhs.model[2])
    assert rebuilt(0.0, y).tobytes() == rhs(0.0, y).tobytes()


def test_registry_contents():
    assert set(PROBLEMS) == {"vdpol", "rober", "hires", "burgers", "heat1d"}
    for factory in PROBLEMS.values():
        assert callable(factory)


def test_problem_validation():
    with pytest.raises(ValueError):
        IvpProblem(name="bad", rhs=lambda t, y: y, t0=1.0,
                   y0=np.array([1.0]), t_out=0.5)
    with pytest.raises(ValueError):
        IvpProblem(name="bad", rhs=lambda t, y: y, t0=0.0,
                   y0=np.array([float("nan")]), t_out=1.0)
    for t0, t_out in [(0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf),
                      (math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(ValueError, match=rf"need finite t0 < t_out, got \[{t0}, {t_out}\]"):
            IvpProblem(name="bad", rhs=lambda t, y: y, t0=t0, y0=np.ones(1), t_out=t_out)


def test_dim_is_the_size_of_y0():
    with pytest.raises(TypeError):
        IvpProblem(name="bad", dim=3, rhs=lambda t, y: y, t0=0.0,
                   y0=np.zeros(3), t_out=1.0)
    for factory in PROBLEMS.values():
        prob = factory()
        assert prob.dim == prob.y0.size
    with pytest.raises(ValueError, match="y0 must be a vector"):
        IvpProblem(name="bad", rhs=lambda t, y: y, t0=0.0, y0=np.zeros((2, 2)), t_out=1.0)


def test_an_empty_y0_is_rejected():
    with pytest.raises(ValueError, match=r"at least one entry, got shape \(0,\)"):
        IvpProblem(name="bad", rhs=lambda t, y: y, t0=0.0, y0=np.ones(0), t_out=1.0)


@pytest.mark.parametrize("bands,with_jac", [
    ((1, 1), False),
    ((-1, 1), True),
    ((1, -1), True),
    ((3, 0), True),
    ((0, 3), True),
    # Not two ints: accepted, these failed late, in _trap_step's indexing
    # or in scipy.
    ((1.0, 1.0), True),
    ((True, True), True),
    ((1, False), True),
    ((1,), True),
    ((1, 1, 1), True),
    ("11", True),
    (1, True),
    ([1.5, 1], True),
])
def test_problem_rejects_invalid_jacobian_bands(bands, with_jac):
    jac = (lambda t, y: np.zeros((4, 3))) if with_jac else None
    with pytest.raises(ValueError, match="jac_bands"):
        IvpProblem(name="bad", rhs=lambda t, y: y, t0=0.0,
                   y0=np.zeros(3), t_out=1.0, jac=jac, jac_bands=bands)


def test_numpy_int_jacobian_bands_are_accepted():
    ok = IvpProblem(name="ok", rhs=lambda t, y: y, t0=0.0, y0=np.zeros(3), t_out=1.0,
                    jac=lambda t, y: np.zeros((3, 3)), jac_bands=(np.int64(1), 1))
    assert ok.jac_bands == (1, 1)


@pytest.mark.parametrize("n", [1, 4])
def test_jacobian_bands_reach_up_to_the_size_of_y0(n):
    prob = IvpProblem(name="ok", rhs=lambda t, y: y, t0=0.0, y0=np.zeros(n), t_out=1.0,
                      jac=lambda t, y: np.zeros((2 * n - 1, n)), jac_bands=(n - 1, n - 1))
    assert prob.jac_bands == (n - 1, n - 1)
    for bands in ((n, 0), (0, n)):
        with pytest.raises(ValueError, match=rf"0 <= l, u < {n}"):
            dataclasses.replace(prob, jac_bands=bands)


if __name__ == "__main__":
    # Re-pin: rebuild the seven records in an empty cache, print each one's
    # move from its old pin, absolute and in units of the old gap, and write
    # them, under the current SOLVER_VERSION, to RECORD_PINS.
    import tempfile

    old = json.loads(RECORD_PINS.read_text())
    print(f"record moves from the pins of SOLVER_VERSION {old['solver_version']}:")
    with tempfile.TemporaryDirectory() as cache:
        os.environ[problems_mod.CACHE_ENV] = cache
        records = {}
        for name in REGISTRY_RECORDS:
            y, gap = registry_record(name)
            records[name] = {"gap": gap, "y": y.tolist()}
            pin = old["records"][name]
            moved = float(np.max(np.abs(y - np.array(pin["y"]))))
            print(f"  {name:12} moved {moved:.3g} = {moved / pin['gap']:.3g} of its gap "
                  f"{pin['gap']:.3g}")
    RECORD_PINS.write_text(json.dumps(
        {"solver_version": reference_mod.SOLVER_VERSION, "records": records}, indent=1) + "\n")
    print(f"wrote {RECORD_PINS} for SOLVER_VERSION {reference_mod.SOLVER_VERSION}")
