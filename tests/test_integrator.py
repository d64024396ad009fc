"""Two-step integrator: stage recurrence, accounting, stage selection."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsrk.design import (
    DesignInput,
    build_damped_pair,
    design_method,
    solve_damping,
    stability_length,
    stable_interval_length,
)
from tsrk.integrator import (
    BlowUpError,
    CapacityError,
    StepState,
    estimate_spectral_radius,
    integrate,
    select_stages,
    starter_y1,
    step,
)
import tsrk.integrator as integrator_mod
from tsrk.problems import IvpProblem, ReferenceValue, burgers, heat1d
from tsrk.stability import INSIDE_TOL, max_abs_root


def linear_problem(lam, t_out=1.0, y0=1.0):
    return IvpProblem(
        name="lin", dim=1,
        rhs=lambda t, y: lam * y,
        jac=lambda t, y: np.array([[lam]]),
        t0=0.0, y0=np.array([float(y0)]), t_out=t_out,
    )


class TestStep:
    def test_constant_solutions_preserved(self):
        method = design_method(5, 0.05)
        y = np.array([3.5, -1.25])
        state = StepState(0.0, y, y, 0.1)
        out = step(method, lambda t, v: np.zeros_like(v), state)
        assert np.allclose(out, y, rtol=1e-14, atol=1e-14)

    def test_linear_step_equals_characteristic_recurrence(self):
        method = design_method(5, 0.05)
        lam, h = -3.0, 1.5
        r1, r0 = method.char_polys(h * lam)
        y_prev, y_curr = np.array([0.8]), np.array([1.1])
        out = step(method, lambda t, y: lam * y, StepState(0.0, y_prev, y_curr, h))
        expected = float(r1) * 1.1 + float(r0) * 0.8
        assert out[0] == pytest.approx(expected, rel=1e-13)

    def test_two_steps_match_companion_matrix_power(self):
        method = design_method(5, 0.05)
        lam, h = -1.0, 1.0
        r1, r0 = (float(v) for v in method.char_polys(h * lam))
        companion = np.array([[r1, r0], [1.0, 0.0]])
        y0, y1 = 1.0, math.exp(-h)
        state = np.array([y1, y0])
        yp, yc = np.array([y0]), np.array([y1])
        for n in range(1, 3):
            yn = step(method, lambda t, y: lam * y, StepState(n * h, yp, yc, h))
            yp, yc = yc, yn
            state = companion @ state
        assert yc[0] == pytest.approx(state[0], rel=1e-13)

    def test_evaluation_count_is_exactly_s(self):
        for s in (2, 5, 23):
            method = design_method(s, 0.05)
            calls = {"n": 0}

            def f(t, y):
                calls["n"] += 1
                return -y

            step(method, f, StepState(0.0, np.array([1.0]), np.array([1.0]), 0.01))
            assert calls["n"] == s

    def test_stage_times_follow_c(self):
        method = design_method(4, 0.05)
        h = 0.25
        seen = []

        def f(t, y):
            seen.append(t)
            return 0.0 * y

        step(method, f, StepState(2.0, np.array([1.0]), np.array([1.0]), h))
        assert np.allclose(seen, 2.0 + method.c * h, rtol=1e-14)

    def test_blowup_carries_stage_index(self):
        method = design_method(5, 0.05)
        lam, h = -100.0, 1.0  # h*lam far beyond the stability interval

        def f(t, y):
            return lam * y

        state = StepState(0.0, np.array([1.0]), np.array([1e14]), h)
        with pytest.raises(BlowUpError) as err:
            step(method, f, state)
        assert err.value.stage >= 0

    def test_stage_storage_independent_of_s(self):
        dim = 200_000
        y = np.ones(dim)
        f = lambda t, v: -1e-3 * v

        def peak_for(s):
            method = design_method(s, 0.05)
            tracemalloc.start()
            step(method, f, StepState(0.0, y, y, 1e-3))
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        peak_small, peak_large = peak_for(8), peak_for(256)
        # An s-length stage array would add 256 * dim * 8 = 400 MB.
        assert peak_large < peak_small + 50 * dim * 8 / 10


class TestIntegrate:
    def test_requires_integral_step_count(self):
        with pytest.raises(ValueError):
            integrate(design_method(3, 0.05), linear_problem(-1.0), 0.3)

    def test_linear_iterates_match_recurrence(self):
        rng = np.random.default_rng(11)
        method = design_method(5, 0.05)
        for _ in range(5):
            mu = -method.l_s * rng.uniform()
            h = rng.uniform(0.05, 0.5)
            lam = mu / h
            n = 40
            prob = linear_problem(lam, t_out=n * h)
            y1 = math.exp(lam * h)
            res = integrate(method, prob, h, y1=np.array([y1]))
            r1, r0 = (float(v) for v in method.char_polys(mu))
            zp, zc = 1.0, y1
            for _ in range(1, n):
                zp, zc = zc, r1 * zc + r0 * zp
            assert res.y_end[0] == pytest.approx(zc, rel=1e-12)

    def test_accounting(self):
        method = design_method(7, 0.05)
        prob = linear_problem(-2.0, t_out=1.0)
        res = integrate(method, prob, 0.125)
        assert res.steps_taken == 7  # (t_out - t0)/h = 8 -> 7 applications
        assert res.stage_evals == 7 * 7
        assert res.method_s == 7
        assert res.starter_evals > 0

    def test_starter_keeps_the_problems_jacobian_bands(self, monkeypatch):
        prob = dataclasses.replace(burgers(40), reference=None)
        h = 0.125
        starts = []
        real_starter = integrator_mod.starter_y1

        def starter(problem, h, substeps=64):
            starts.append((problem, real_starter(problem, h, substeps)))
            return starts[-1][1]

        monkeypatch.setattr(integrator_mod, "starter_y1", starter)
        s = select_stages(estimate_spectral_radius(prob), h)
        integrate(design_method(s, 0.05), prob, h)
        ((stub, y1),) = starts
        assert stub.jac_bands == (1, 1)
        assert np.array_equal(y1, real_starter(prob, h))

    def test_supplied_y1_skips_starter(self):
        method = design_method(3, 0.05)
        prob = linear_problem(-1.0, t_out=1.0)
        res = integrate(method, prob, 0.25, y1=np.array([math.exp(-0.25)]))
        assert res.starter_evals == 0

    def test_endpoint_error_against_reference(self):
        lam = -2.0
        exact = math.exp(lam)
        prob = dataclasses.replace(
            linear_problem(lam, t_out=1.0),
            reference=lambda: ReferenceValue(y=np.array([exact]), estimate=1e-15),
        )
        res = integrate(design_method(4, 0.05), prob, 0.01)
        assert res.endpoint_error == pytest.approx(abs(res.y_end[0] - exact))
        assert res.reference_estimate == 1e-15

    def test_blowup_reports_progress(self):
        method = design_method(2, 0.05)
        lam = -(method.l_s + 2.0)  # h = 1
        prob = linear_problem(lam, t_out=300.0)
        with pytest.raises(BlowUpError) as err:
            integrate(method, prob, 1.0, y1=np.array([1.0]))
        assert err.value.steps_done >= 0
        assert err.value.fevals >= method.s

    def test_blowup_fevals_count_the_starter_too(self):
        method = design_method(2, 0.05)
        lam = -(method.l_s + 2.0)  # h = 1
        calls = []
        prob = dataclasses.replace(linear_problem(lam, t_out=300.0),
                                   rhs=lambda t, y: calls.append(1) or lam * y)
        with pytest.raises(BlowUpError) as err:
            integrate(method, prob, 1.0)
        assert err.value.fevals == len(calls)
        # More than the stage evaluations of the steps begun: the starter's
        # evaluations are included.
        assert err.value.fevals > (err.value.steps_done + 1) * method.s

    def test_stability_threshold_behavior(self):
        for s in (3, 8):
            method = design_method(s, 0.05)
            lam_bad = -(method.l_s + 2.0)
            prob = linear_problem(lam_bad, t_out=200.0)
            with pytest.raises(BlowUpError):
                integrate(method, prob, 1.0, y1=np.array([1.0]))
            lam_ok = -(method.l_s - 0.5)
            prob = linear_problem(lam_ok, t_out=200.0)
            res = integrate(method, prob, 1.0, y1=np.array([1.0]))
            assert abs(res.y_end[0]) <= 1.0 + 1e-9

    def test_nonautonomous_observed_order(self):
        # y' = -y + cos t with exact solution (cos t + sin t + e^-t)/2.
        def exact(t):
            return 0.5 * (math.cos(t) + math.sin(t) + math.exp(-t))

        prob = IvpProblem(
            name="forced", dim=1,
            rhs=lambda t, y: -y + math.cos(t),
            jac=lambda t, y: np.array([[-1.0]]),
            t0=0.0, y0=np.array([1.0]), t_out=2.0,
            reference=lambda: ReferenceValue(y=np.array([exact(2.0)]),
                                             estimate=1e-15),
        )
        method = design_method(5, 0.05)
        errs = []
        for k in range(5):
            h = 0.02 / 2**k
            res = integrate(method, prob, h, starter_substeps=256)
            errs.append(res.endpoint_error)
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(4)]
        assert all(1.8 <= p <= 2.2 for p in orders), (errs, orders)


@settings(max_examples=60, deadline=None, database=None)
@given(s=st.integers(2, 40), frac=st.floats(0.0, 1.0), y1=st.floats(-1.0, 1.0))
def test_linear_run_equals_characteristic_recurrence(s, frac, y1):
    # y' = lam y with h lam = mu anywhere on the stability interval: the run
    # is y_{n+1} = R1(mu) y_n + R0(mu) y_{n-1}, and every f evaluation is
    # one of the counted stages.  Rounding in the stages (which extrapolate
    # with a~ ~ 20) grows about linearly with the step count; over 6 steps
    # the worst seen for s <= 40 is 4.5e-13 of the largest iterate.
    method = design_method(s, 0.05)
    mu = -frac * stable_interval_length(solve_damping(DesignInput(s, 0.05)))
    h, n = 0.25, 6
    calls = []
    prob = dataclasses.replace(linear_problem(mu / h, t_out=n * h),
                               rhs=lambda t, y: calls.append(1) or (mu / h) * y)
    res = integrate(method, prob, h, y1=np.array([y1]))
    r1, r0 = (float(v) for v in method.char_polys(mu))
    zs = [1.0, y1]
    for _ in range(1, n):
        zs.append(r1 * zs[-1] + r0 * zs[-2])
    assert abs(res.y_end[0] - zs[-1]) <= 1e-12 * max(abs(z) for z in zs)
    assert res.stage_evals == len(calls) == (n - 1) * s


class TestStarter:
    def test_exponential_start(self):
        prob = linear_problem(-1.0)
        y1 = starter_y1(prob, 0.1, substeps=1024)
        assert y1[0] == pytest.approx(math.exp(-0.1), abs=1e-6)

    def test_stiff_problem_start_is_finite(self):
        from tsrk.problems import vdpol

        y1 = starter_y1(vdpol(), 0.001, substeps=16)
        assert np.all(np.isfinite(y1))

    def test_degenerate_step_rejected(self):
        with pytest.raises(ValueError):
            starter_y1(linear_problem(-1.0), 0.0)
        with pytest.raises(ValueError):
            starter_y1(linear_problem(-1.0), 0.1, substeps=0)


class TestSelectStages:
    def test_known_thresholds(self):
        assert select_stages(47.0, 1.0) == 5
        assert select_stages(7.6, 1.0) == 2
        assert select_stages(1e-9, 1.0) == 2
        assert select_stages(0.0, 1.0) == 2

    def test_consistency_with_lengths(self):
        from tsrk.integrator import _length

        for target in (100.0, 3000.0, 8e4):
            s = select_stages(target, 1.0)
            assert _length(s, 0.05) >= target
            assert s == 2 or _length(s - 1, 0.05) < target

    @pytest.mark.parametrize("s", [2, 20])
    def test_even_s_parity_gap_selects_next_stage_count(self, s):
        # Between 2 omega s^2 / beta and the closed form the even-s pair has
        # a root above 1, so that s must not be chosen there.
        sol = solve_damping(DesignInput(s, 0.05))
        l_even = 2.0 * sol.omega * s**2 / sol.beta
        target = 0.5 * (stability_length(sol) + l_even)
        assert max_abs_root(build_damped_pair(sol), -target) > 1.0 + 1e-4
        chosen = select_stages(target, 1.0)
        assert chosen == s + 1
        pair = build_damped_pair(solve_damping(DesignInput(chosen, 0.05)))
        assert max_abs_root(pair, -target) <= 1.0 + INSIDE_TOL

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            select_stages(1e10, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            select_stages(-1.0, 1.0)
        with pytest.raises(ValueError):
            select_stages(10.0, 0.0)


class TestSpectralRadius:
    def test_scalar_linear(self):
        prob = linear_problem(-100.0)
        rho = estimate_spectral_radius(prob)
        assert 100.0 <= rho <= 111.0  # 100 with the 1.05 safety factor

    def test_heat_equation_matches_eigenvalue(self):
        base = heat1d(40)
        exact = base.rho_bound(0.0, base.y0)
        probed = dataclasses.replace(base, rho_bound=None)
        rho = estimate_spectral_radius(probed)
        assert rho == pytest.approx(1.05 * exact, rel=0.05)

    def test_analytic_bound_takes_precedence(self):
        base = heat1d(40)
        assert estimate_spectral_radius(base) == base.rho_bound(0.0, base.y0)

    def test_constant_rhs_gives_zero(self):
        prob = IvpProblem(
            name="const", dim=2,
            rhs=lambda t, y: np.array([1.0, -2.0]),
            t0=0.0, y0=np.zeros(2), t_out=1.0,
        )
        assert estimate_spectral_radius(prob) == 0.0
        assert select_stages(0.0, 0.5) == 2
