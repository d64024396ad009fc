"""Test-problem suite: definitions, Jacobians, window starts, references."""
import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("factory,state", [
    (vdpol, np.array([1.8, -0.9])),
    (rober, np.array([0.3, 2e-6, 0.7])),
    (hires, np.array([0.01, 0.001, 0.001, 0.01, 0.2, 0.7, 0.005, 5e-5])),
    (lambda: burgers(40), None),
    (lambda: heat1d(12), None),
])
def test_analytic_jacobian_matches_finite_differences(factory, state):
    prob = factory()
    y = prob.y0.copy() if state is None else state
    jac = prob.jac(0.0, y)
    fd = fd_jacobian(prob.rhs, 0.0, y)
    if prob.jac_bands is not None:
        assert jac.shape == (sum(prob.jac_bands) + 1, prob.dim)
        jac = banded_to_dense(jac, prob.jac_bands)
        lower, upper = prob.jac_bands
        offset = np.subtract.outer(np.arange(prob.dim), np.arange(prob.dim))
        assert np.all(fd[(offset > lower) | (-offset > upper)] == 0.0)
    scale = max(1.0, float(np.max(np.abs(jac))))
    assert np.max(np.abs(jac - fd)) / scale < 1e-5


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
        monkeypatch.setattr(problems_mod, "_memory_cache", {})
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
        monkeypatch.setattr(problems_mod, "_memory_cache", {})
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return {"y": [1.0, 2.0], "diff": 0.5}

        first = problems_mod._cached("demo|start|x", compute)
        monkeypatch.setattr(problems_mod, "_memory_cache", {})
        second = problems_mod._cached("demo|start|x", compute)
        assert calls["n"] == 1  # second hit served from disk
        assert first["y"] == second["y"]

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
        monkeypatch.setattr(problems_mod, "_memory_cache", {})
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
        monkeypatch.setattr(problems_mod, "_memory_cache", {})
        calls = []

        def compute():
            calls.append(1)
            return {"y": [1.0]}

        problems_mod._cached("demo|k", compute)
        (path,) = tmp_path.glob("demo_*.json")
        path.write_text(json.dumps({"y": [9.0], "key": "demo|stale"}))
        monkeypatch.setattr(problems_mod, "_memory_cache", {})
        record = problems_mod._cached("demo|k", compute)
        assert len(calls) == 2
        assert record["y"] == [1.0]
        assert json.loads(path.read_text()) == {"y": [1.0], "key": "demo|k"}

    def test_a_solver_bump_rewrites_the_records_own_file(self, monkeypatch, tmp_path):
        # The file is named by the key without its solver part, so a new
        # SOLVER_VERSION replaces the record instead of adding a second file.
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(problems_mod, "_memory_cache", {})
        prob = IvpProblem(name="decay", rhs=lambda t, y: -y, jac=lambda t, y: -np.eye(1),
                          t0=0.0, y0=np.array([1.0]), t_out=1.0, cache_key="decay")
        schedule = ((0.0, 1.0, 4),)
        problems_mod._certified(prob, schedule, prob.y0)
        (path,) = tmp_path.iterdir()
        monkeypatch.setattr(reference_mod, "SOLVER_VERSION", reference_mod.SOLVER_VERSION + 1)
        monkeypatch.setattr(problems_mod, "_memory_cache", {})
        problems_mod._certified(prob, schedule, prob.y0)
        assert list(tmp_path.iterdir()) == [path]
        key = reference_mod.record_key("decay", schedule, prob.y0)
        assert f"|ref-v{reference_mod.SOLVER_VERSION}|" in key
        assert json.loads(path.read_text())["key"] == key

    def test_writers_use_private_temp_files(self, monkeypatch, tmp_path):
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(problems_mod, "_memory_cache", {})
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
    with np.errstate(over="ignore", invalid="ignore"):
        for y in ys:
            assert bits(rhs(0.0, y)) == bits(_numpy_scalar_rhs(name, y))


@pytest.mark.parametrize("name", ["vdpol", "rober", "hires"])
def test_list_form_matches_the_array_rhs_bit_for_bit(name):
    # integrate calls the list form on stages 2..s and the array rhs on
    # stages 0 and 1, so the two must agree in every bit, NaN payloads and
    # overflow to inf included.
    prob = PROBLEMS[name]()
    rhs, list_rhs = prob.list_rhs
    assert rhs is prob.rhs

    def bits(values):
        return struct.pack(f"{prob.dim}d", *values)

    rng = np.random.default_rng(17)
    ys = rng.standard_normal((3000, prob.dim)) * 10.0 ** rng.uniform(-20, 200, (3000, prob.dim))
    ys[0] = 1e200  # _square(y1) (vdpol), _square(y2) (rober), y6 * y8 (hires) overflow
    ys[1, -1] = math.nan
    assert math.isinf(max(map(abs, list_rhs(0.0, ys[0].tolist()))))
    for y in ys:
        assert bits(list_rhs(0.0, y.tolist())) == bits(rhs(0.0, y).tolist())


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


def test_dim_is_the_size_of_y0():
    with pytest.raises(TypeError):
        IvpProblem(name="bad", dim=3, rhs=lambda t, y: y, t0=0.0,
                   y0=np.zeros(3), t_out=1.0)
    for factory in PROBLEMS.values():
        prob = factory()
        assert prob.dim == prob.y0.size
    with pytest.raises(ValueError, match="y0 must be a vector"):
        IvpProblem(name="bad", rhs=lambda t, y: y, t0=0.0, y0=np.zeros((2, 2)), t_out=1.0)


@pytest.mark.parametrize("bands,with_jac", [
    ((1, 1), False),
    ((-1, 1), True),
    ((1, -1), True),
    ((3, 0), True),
    ((0, 3), True),
])
def test_problem_rejects_invalid_jacobian_bands(bands, with_jac):
    jac = (lambda t, y: np.zeros((4, 3))) if with_jac else None
    with pytest.raises(ValueError):
        IvpProblem(name="bad", rhs=lambda t, y: y, t0=0.0,
                   y0=np.zeros(3), t_out=1.0, jac=jac, jac_bands=bands)


@pytest.mark.parametrize("n", [1, 4])
def test_jacobian_bands_reach_up_to_the_size_of_y0(n):
    prob = IvpProblem(name="ok", rhs=lambda t, y: y, t0=0.0, y0=np.zeros(n), t_out=1.0,
                      jac=lambda t, y: np.zeros((2 * n - 1, n)), jac_bands=(n - 1, n - 1))
    assert prob.jac_bands == (n - 1, n - 1)
    for bands in ((n, 0), (0, n)):
        with pytest.raises(ValueError, match=rf"0 <= l, u < {n}"):
            dataclasses.replace(prob, jac_bands=bands)
