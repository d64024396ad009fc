"""Test-problem suite: definitions, Jacobians, window starts, references."""
import dataclasses
import hashlib
import json
import math
import os
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
    (lambda: burgers(40, conservative=False), None),
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
    (lambda: burgers(40, conservative=False), 2.5, 100),
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

    def test_conservative_and_central_forms_agree_on_smooth_data(self):
        cons, cent = burgers(60), burgers(60, conservative=False)
        u = cons.y0
        # (u^2/2)_x vs u u_x differ by O(dx^2) on smooth profiles.
        assert np.max(np.abs(cons.rhs(0.0, u) - cent.rhs(0.0, u))) < 0.05

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


class TestStartStateCache:
    @pytest.mark.parametrize("name", ["vdpol", "rober", "hires"])
    def test_self_consistency(self, name):
        info = window_start_info(name)
        assert info.diff <= 1e-8

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            window_start_info("nope")

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(problems_mod.CACHE_ENV, str(tmp_path / "c"))
        assert cache_dir() == tmp_path / "c"
        assert cache_dir().is_dir()

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


def test_registry_contents():
    assert set(PROBLEMS) == {"vdpol", "rober", "hires", "burgers", "heat1d"}
    for factory in PROBLEMS.values():
        assert callable(factory)


def test_problem_validation():
    with pytest.raises(ValueError):
        IvpProblem(name="bad", dim=2, rhs=lambda t, y: y, t0=0.0,
                   y0=np.array([1.0]), t_out=1.0)
    with pytest.raises(ValueError):
        IvpProblem(name="bad", dim=1, rhs=lambda t, y: y, t0=1.0,
                   y0=np.array([1.0]), t_out=0.5)
    with pytest.raises(ValueError):
        IvpProblem(name="bad", dim=1, rhs=lambda t, y: y, t0=0.0,
                   y0=np.array([float("nan")]), t_out=1.0)


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
        IvpProblem(name="bad", dim=3, rhs=lambda t, y: y, t0=0.0,
                   y0=np.zeros(3), t_out=1.0, jac=jac, jac_bands=bands)
