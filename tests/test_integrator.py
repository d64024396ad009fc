"""Two-step integrator: stage recurrence, accounting, stage selection."""
import contextlib
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsrk.design import (
    DEFAULT_EPS,
    design_method,
    solve_damping,
    stability_length,
    stable_interval_length,
)
from tsrk.integrator import (
    BLOWUP_NORM,
    STAGE_CAP,
    BlowUpError,
    CapacityError,
    estimate_spectral_radius,
    integrate,
    select_stages,
    starter_y1,
    step,
)
import tsrk.integrator as integrator_mod
import tsrk.problems as problems_mod
import tsrk.reference as reference_mod
from tsrk.problems import IvpProblem, ReferenceValue, burgers, heat1d, vdpol
from tsrk.reference import record_key, reference_integrate
from tsrk.stability import INSIDE_TOL, max_abs_root


def linear_problem(lam, t_out=1.0, y0=1.0):
    return IvpProblem(
        name="lin",
        rhs=lambda t, y: lam * y,
        jac=lambda t, y: np.array([[lam]]),
        t0=0.0, y0=np.array([float(y0)]), t_out=t_out,
    )


def indexed_step(method, f, t, y_prev, y_curr, h):
    """``step`` indexing the coefficient arrays per stage: the reference."""
    m, mt, c = method.m, method.m_tilde, method.c
    v_pp = method.a_tilde * y_curr + (1.0 - method.a_tilde) * y_prev
    v_p = v_pp + (h * mt[0]) * f(t + c[0] * h, v_pp)
    for j in range(2, method.s + 1):
        v = (m[j - 2] * v_p + (1.0 - m[j - 2]) * v_pp
             + (h * mt[j - 1]) * f(t + c[j - 1] * h, v_p))
        v_pp, v_p = v_p, v
    return method.a * y_curr + method.b * v_p


# Stage vectors of at most this size run on Python float lists, larger ones
# on numpy arrays; tests of a stage property cover both loops.
SMALL = integrator_mod._LIST_LOOP_MAX_DIM


@pytest.fixture(autouse=True)
def empty_starter_memo(monkeypatch):
    """Each test starts without memoized starters, whatever ran before it."""
    monkeypatch.setattr(integrator_mod, "_STARTERS", {})


def counting(problem):
    """``problem`` with an rhs that computes the same values and counts its calls.

    The copy keeps the problem's ``cache_key``: its rhs computes what the
    key names.
    """
    calls = []

    def rhs(t, y):
        calls.append(1)
        return problem.rhs(t, y)

    return dataclasses.replace(problem, rhs=rhs), calls


class TestStep:
    @pytest.mark.parametrize("s, dim", [
        pytest.param(s, dim, id=str(s) if dim == 3 else f"{s}-n{dim}")
        for dim in (3, 1, SMALL, SMALL + 1, 64) for s in (2, 7, 40)])
    def test_bit_identical_to_indexed_coefficients(self, s, dim):
        method = design_method(s, 0.05)

        def f(t, y):  # nonlinear and time-dependent, so every t_n + c_j h counts
            return -y**3 + np.resize([math.sin(3.0 * t), math.cos(t), 0.5], dim)

        rng = np.random.default_rng(s)
        for _ in range(5):
            y_prev = rng.uniform(-1.0, 1.0, dim)
            y_curr = y_prev + rng.uniform(-0.01, 0.01, dim)  # v_0 amplifies the gap
            state = (rng.uniform(0.0, 10.0), y_prev, y_curr, rng.uniform(0.01, 0.5))
            assert step(method, f, *state).tobytes() == indexed_step(method, f, *state).tobytes()

    @pytest.mark.parametrize("name", ["vdpol", "rober", "hires"])
    def test_bit_identical_on_the_stiff_windows(self, name):
        # Three steps from each window start, at the step size of 100 steps
        # per window and the stage count that selects.
        prob = getattr(problems_mod, name)()
        assert prob.dim <= SMALL
        h = (prob.t_out - prob.t0) / 100
        method = design_method(select_stages(estimate_spectral_radius(prob), h), 0.05)
        # Both with f alone and with the list form of f, as integrate runs it.
        rhs, list_rhs = prob.list_rhs
        assert rhs is prob.rhs
        y_prev, y_curr = prob.y0, starter_y1(prob, h)
        for k in range(1, 4):
            state = (prob.t0 + k * h, y_prev, y_curr, h)
            expected = indexed_step(method, prob.rhs, *state).tobytes()
            assert step(method, prob.rhs, *state, list_rhs).tobytes() == expected
            y_next = step(method, prob.rhs, *state)
            assert y_next.tobytes() == expected
            y_prev, y_curr = y_curr, y_next

    @pytest.mark.parametrize("rhs_dtype, state_dtype", [
        (np.float32, np.float64), (np.float32, np.float32),
        (np.longdouble, np.float64), (np.float64, np.longdouble),
        (np.complex128, np.float64), (np.float64, np.complex128),
    ])
    def test_other_dtypes_match_indexed_coefficients(self, rhs_dtype, state_dtype):
        # A numpy float64 coefficient promotes a float32 operand to double (a
        # Python float would leave it single, NEP 50).  Only float64 stages
        # take the float list loop, where every operation is a double one.
        # Values, not bytes: a long double's bytes include padding.
        method = design_method(7, 0.05)

        def f(t, y):
            return (math.cos(t) - y**3).real.astype(rhs_dtype)

        state = (0.3, np.array([0.2, -0.4, 0.7], dtype=state_dtype),
                 np.array([0.21, -0.41, 0.69], dtype=state_dtype), 0.1)
        out, expected = step(method, f, *state), indexed_step(method, f, *state)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("dim", [3, 64])
    def test_rhs_of_the_wrong_shape_is_rejected(self, dim):
        calls = []

        def f(t, y):
            calls.append(t)
            return np.array([-1.0])

        y = np.ones(dim)
        with pytest.raises(ValueError, match=rf"shape \(1,\) for a state of shape \({dim},\)"):
            step(design_method(5, 0.05), f, 0.0, y, y, 0.1)
        assert len(calls) == 1

    @pytest.mark.parametrize("prev, curr, h, message", [
        # Shapes (1,) and (3,) would broadcast through the stages.
        *[pytest.param(p, c, 0.1, "y_prev and y_curr must have identical shape", id=f"{p}-{c}")
          for p, c in [(1, 3), (3, 1), (3, (3, 1))]],
        *[pytest.param(3, 3, h, "step size must be positive", id=f"h={h}")
          for h in (0.0, -0.1, math.nan)]])
    def test_mismatched_states_and_bad_step_sizes_are_rejected(self, prev, curr, h, message):
        calls = []

        def f(t, y):
            calls.append(t)
            return -y

        with pytest.raises(ValueError, match=message):
            step(design_method(5, 0.05), f, 0.0, np.ones(prev), np.ones(curr), h)
        assert calls == []

    def test_constant_solutions_preserved(self):
        method = design_method(5, 0.05)
        y = np.array([3.5, -1.25])
        state = (0.0, y, y, 0.1)
        out = step(method, lambda t, v: np.zeros_like(v), *state)
        assert np.allclose(out, y, rtol=1e-14, atol=1e-14)

    def test_linear_step_equals_characteristic_recurrence(self):
        method = design_method(5, 0.05)
        lam, h = -3.0, 1.5
        r1, r0 = method.char_polys(h * lam)
        y_prev, y_curr = np.array([0.8]), np.array([1.1])
        out = step(method, lambda t, y: lam * y, 0.0, y_prev, y_curr, h)
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
            yn = step(method, lambda t, y: lam * y, n * h, yp, yc, h)
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

            step(method, f, 0.0, np.array([1.0]), np.array([1.0]), 0.01)
            assert calls["n"] == s

    def test_stage_times_follow_c(self):
        method = design_method(4, 0.05)
        h = 0.25
        seen = []

        def f(t, y):
            seen.append(t)
            return 0.0 * y

        step(method, f, 2.0, np.array([1.0]), np.array([1.0]), h)
        assert np.allclose(seen, 2.0 + method.c * h, rtol=1e-14)

    def test_blowup_carries_stage_index(self):
        method = design_method(5, 0.05)
        lam, h = -100.0, 1.0  # h*lam far beyond the stability interval

        def f(t, y):
            return lam * y

        state = (0.0, np.array([1.0]), np.array([1e14]), h)
        with pytest.raises(BlowUpError) as err:
            step(method, f, *state)
        assert err.value.stage >= 0

    @pytest.mark.parametrize("bad, dim", [
        pytest.param(bad, dim, id=str(bad) if dim == 4 else f"{bad}-n{dim}")
        for dim in (4, 64) for bad in (math.nan, math.inf, -math.inf, 2e15)])
    def test_blowup_names_the_exact_stage(self, bad, dim):
        # f turns bad on its 3rd call, which makes stage 3; h is large enough
        # that h m~_3 * 2e15 passes BLOWUP_NORM.
        method = design_method(5, 0.05)
        calls = []

        def f(t, y):
            calls.append(t)
            return np.zeros_like(y) if len(calls) < 3 else np.full_like(y, bad)

        state = (0.0, np.ones(dim), np.ones(dim), 20.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BlowUpError) as err:
                step(method, f, *state)
        assert err.value.stage == 3
        assert len(calls) == 3
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("v", [[BLOWUP_NORM], [BLOWUP_NORM] * 3, [-BLOWUP_NORM, 0.0]])
    def test_guard_passes_the_norm_itself(self, v):
        # v.v of [1e15] * 3 exceeds 1e30, so the exact max-norm test decides.
        integrator_mod._check_stage(np.array(v), 4, 0.0)

    @pytest.mark.parametrize("v", [[np.nextafter(BLOWUP_NORM, math.inf)],
                                   [0.0, -np.nextafter(BLOWUP_NORM, math.inf)],
                                   [1e200, 0.0, 0.0]])
    def test_guard_rejects_just_above_the_norm(self, v):
        # step runs the guard with overflow warnings off; v.v of 1e200 overflows.
        with np.errstate(over="ignore"), pytest.raises(BlowUpError) as err:
            integrator_mod._check_stage(np.array(v), 4, 0.0)
        assert err.value.stage == 4

    @pytest.mark.parametrize("v", [[1e20j], [0.0, 2e15 + 0j], [[0.0, 2e15]], [[1.0], [math.nan]],
                                   [[1e200, 0.0]]])
    def test_guard_rejects_complex_and_2d_vectors_by_the_max_norm(self, v):
        # v.v of [1e20j] is -1e40, below the bound: complex v skips the shortcut.
        with np.errstate(over="ignore"), pytest.raises(BlowUpError) as err:
            integrator_mod._check_stage(np.array(v), 4, 0.0)
        assert err.value.stage == 4

    @pytest.mark.parametrize("v", [[1e15j, 1.0], [[BLOWUP_NORM, -BLOWUP_NORM]], [[1.0], [2.0]]])
    def test_guard_passes_complex_and_2d_vectors_within_the_norm(self, v):
        integrator_mod._check_stage(np.array(v), 4, 0.0)

    @pytest.mark.parametrize("y", [np.ones(2, dtype=complex), np.ones((2, 2))])
    def test_complex_and_2d_states_blow_up_at_the_exact_stage(self, y):
        method = design_method(5, 0.05)
        calls = []

        def f(t, v):
            calls.append(t)
            return np.zeros_like(v) if len(calls) < 3 else 1e20j * np.ones_like(v)

        with pytest.raises(BlowUpError) as err:
            step(method, f, 0.0, y, y, 20.0)
        assert err.value.stage == 3
        assert len(calls) == 3

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-2.0 * BLOWUP_NORM, 2.0 * BLOWUP_NORM),
        st.sampled_from([BLOWUP_NORM, -BLOWUP_NORM,
                         np.nextafter(BLOWUP_NORM, 0.0),
                         np.nextafter(BLOWUP_NORM, math.inf)])),
        min_size=1, max_size=12))
    def test_guard_agrees_with_the_max_norm(self, values):
        v = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = not np.abs(v).max() <= BLOWUP_NORM
            # The float list loop's shortcut never passes what the max-norm rejects.
            assert not (math.hypot(*values) <= BLOWUP_NORM and expected)
            try:
                integrator_mod._check_stage(v, 2, 0.0)
                raised = False
            except BlowUpError:
                raised = True
        assert raised == expected

    @pytest.mark.parametrize("dim", [3, 64])
    def test_overflowing_stage_names_the_exact_stage_without_warnings(self, dim):
        # The 3rd f value overflows v.v; the stage is still reported exactly
        # and no numpy overflow warning escapes.
        method = design_method(5, 0.05)
        calls = []

        def f(t, y):
            calls.append(t)
            return np.zeros_like(y) if len(calls) < 3 else np.r_[1e200, np.zeros(dim - 1)]

        state = (0.0, np.ones(dim), np.ones(dim), 20.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BlowUpError) as err:
                step(method, f, *state)
        assert err.value.stage == 3
        assert len(calls) == 3
        assert [str(w.message) for w in caught] == []

    def test_stage_storage_independent_of_s(self):
        dim = 200_000
        y = np.ones(dim)
        f = lambda t, v: -1e-3 * v

        def peak_for(s):
            method = design_method(s, 0.05)
            tracemalloc.start()
            step(method, f, 0.0, y, y, 1e-3)
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

    def test_a_replaced_rhs_runs_every_stage(self):
        # rober() carries the list form of its rhs; a copy with another rhs
        # must call that rhs s times per step and never the list form.
        prob = problems_mod.rober()
        h = (prob.t_out - prob.t0) / 20
        method = design_method(select_stages(estimate_spectral_radius(prob), h), 0.05)
        plain = integrate(method, prob, h)
        counted, calls = counting(prob)
        res = integrate(method, counted, h)  # the starter comes from the memo
        assert len(calls) == res.steps_taken * method.s == res.stage_evals
        assert (res.stage_evals, res.starter_evals) == (plain.stage_evals, plain.starter_evals)
        assert res.y_end.tobytes() == plain.y_end.tobytes()

    def test_starter_keeps_the_problems_jacobian_bands(self, monkeypatch):
        prob = dataclasses.replace(burgers(40), reference=None)
        h = 0.125
        starts = []
        real_starter = integrator_mod.starter_y1

        def starter(problem, h):
            starts.append((problem, real_starter(problem, h)))
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

    @pytest.mark.parametrize("h", [0.1, 0.05])  # the whole window, and two steps
    def test_supplied_y1_must_have_the_state_shape(self, h):
        prob = heat1d(8)  # window [0, 0.1]
        with pytest.raises(ValueError, match=r"y1 has shape \(1,\), y0 has shape \(8,\)"):
            integrate(design_method(5, 0.05), prob, h, y1=np.zeros(1))

    def test_endpoint_error_against_reference(self):
        lam = -2.0
        exact = math.exp(lam)
        prob = dataclasses.replace(
            linear_problem(lam, t_out=1.0),
            reference=lambda: ReferenceValue(y=np.array([exact]), estimate=1e-15),
        )
        res = integrate(design_method(4, 0.05), prob, 0.01)
        assert res.endpoint_error == pytest.approx(abs(res.y_end[0] - exact))

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
            name="forced",
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
            res = integrate(method, prob, h, y1=reference_integrate(prob, 0.0, h, 256))
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
    mu = -frac * stable_interval_length(solve_damping(s, 0.05))
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


class TestStarterMemo:
    """A keyed problem's y_1 is computed once per (t0, y0, h, solver)."""

    def test_a_hunt_computes_its_starter_once(self):
        prob, calls = counting(dataclasses.replace(burgers(40), reference=None))
        h = 0.125
        first = integrate(design_method(2, 0.05), prob, h)
        assert len(calls) == first.stage_evals + first.starter_evals
        calls.clear()
        second = integrate(design_method(3, 0.05), prob, h)
        assert len(calls) == second.stage_evals  # no starter call
        assert second.starter_evals == first.starter_evals > 0
        integrator_mod._STARTERS.clear()
        fresh = integrate(design_method(3, 0.05), prob, h)
        assert fresh.y_end.tobytes() == second.y_end.tobytes()
        assert fresh.starter_evals == second.starter_evals

    def test_an_unstable_attempt_reports_as_without_the_memo(self):
        # Every s blows up at h = 0.25 on this grid, in its seventh step.
        prob, calls = counting(dataclasses.replace(burgers(40), reference=None))
        h, method = 0.25, design_method(3, 0.05)
        with pytest.raises(BlowUpError):
            integrate(design_method(2, 0.05), prob, h)
        calls.clear()
        with pytest.raises(BlowUpError) as hit:
            integrate(method, prob, h)
        assert len(calls) == hit.value.steps_done * method.s + hit.value.stage
        integrator_mod._STARTERS.clear()
        calls.clear()
        with pytest.raises(BlowUpError) as fresh:
            integrate(method, prob, h)
        assert len(calls) == fresh.value.fevals
        assert ((hit.value.steps_done, hit.value.fevals, hit.value.stage, hit.value.t)
                == (fresh.value.steps_done, fresh.value.fevals, fresh.value.stage,
                    fresh.value.t))

    def test_a_problem_without_a_key_recomputes_its_starter(self):
        lam = {"value": -1.0}
        prob = IvpProblem(name="lin", rhs=lambda t, y: lam["value"] * y,
                          jac=lambda t, y: np.array([[lam["value"]]]),
                          t0=0.0, y0=np.array([1.0]), t_out=1.0)
        method = design_method(3, 0.05)
        integrate(method, prob, 0.25)
        lam["value"] = -2.0
        changed = integrate(method, prob, 0.25)
        rebuilt = integrate(method, linear_problem(-2.0), 0.25)
        assert changed.y_end.tobytes() == rebuilt.y_end.tobytes()
        assert integrator_mod._STARTERS == {}

    def test_a_supplied_y1_neither_reads_nor_writes_the_memo(self):
        prob = dataclasses.replace(burgers(40), reference=None)
        h, method = 0.125, design_method(2, 0.05)
        y1 = starter_y1(prob, h)
        supplied = integrate(method, prob, h, y1=y1)
        assert integrator_mod._STARTERS == {}
        key = integrator_mod._starter_key(prob, h)
        integrator_mod._STARTERS[key] = (np.full(40, np.nan), 7)
        again = integrate(method, prob, h, y1=y1)
        assert again.y_end.tobytes() == supplied.y_end.tobytes()
        assert again.starter_evals == 0
        assert integrator_mod._STARTERS[key][1] == 7

    def test_a_starter_that_raises_is_not_kept(self):
        fail = [True]

        def rhs(t, y):
            if fail.pop() if fail else False:
                raise FloatingPointError("first call fails")
            return -y

        prob = dataclasses.replace(linear_problem(-1.0), rhs=rhs, cache_key="lin|lam=-1")
        with pytest.raises(FloatingPointError):
            integrate(design_method(3, 0.05), prob, 0.25)
        assert integrator_mod._STARTERS == {}
        assert integrate(design_method(3, 0.05), prob, 0.25).starter_evals > 0
        assert len(integrator_mod._STARTERS) == 1

    def test_the_key_names_everything_y1_depends_on(self, monkeypatch):
        # A fixed window start keeps Van der Pol cheap under a changed
        # VDPOL_EPS; Burgers builds no record without its reference.
        monkeypatch.setattr(problems_mod, "_cached",
                            lambda key, compute: {"y": [2.0, -2.0 / 3.0], "diff": 0.0})
        starts = []
        real_starter = integrator_mod.starter_y1

        def starter(problem, h):
            starts.append(h)
            return real_starter(problem, h)

        monkeypatch.setattr(integrator_mod, "starter_y1", starter)

        def fresh(problem, h=0.01):
            """Does one step of ``problem`` at h compute its starter?"""
            before = len(starts)
            short = dataclasses.replace(problem, t_out=problem.t0 + 2 * h, reference=None)
            with contextlib.suppress(BlowUpError):
                integrate(design_method(2, 0.05), short, h)
            return len(starts) > before

        builders = {"burgers": lambda: burgers(12), "vdpol": vdpol}
        assert all(fresh(build()) for build in builders.values())
        assert not any(fresh(build()) for build in builders.values())
        for module, name, value, changed in [
            (reference_mod, "NEWTON_TOL", 1e-11, {"burgers", "vdpol"}),
            (reference_mod, "SOLVER_VERSION", reference_mod.SOLVER_VERSION + 1,
             {"burgers", "vdpol"}),
            (problems_mod, "BURGERS_MU", 0.01, {"burgers"}),
            (problems_mod, "VDPOL_EPS", 2e-6, {"vdpol"}),
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(module, name, value)
                now = {tag for tag, build in builders.items() if fresh(build())}
            assert now == changed, name
        for build in builders.values():
            prob = build()
            assert fresh(prob, h=0.005)
            assert fresh(dataclasses.replace(prob, y0=prob.y0 * 0.5))
            assert fresh(dataclasses.replace(prob, t0=prob.t0 + 0.01, t_out=prob.t_out + 0.01))
            assert not fresh(prob)


class TestStarter:
    def test_exponential_start(self):
        prob = linear_problem(-1.0)
        y1 = reference_integrate(prob, 0.0, 0.1, 1024)
        assert y1[0] == pytest.approx(math.exp(-0.1), abs=1e-6)

    def test_stiff_problem_start_is_finite(self):
        prob = vdpol()
        y1 = reference_integrate(prob, prob.t0, prob.t0 + 0.001, 16)
        assert np.all(np.isfinite(y1))

    def test_degenerate_step_rejected(self):
        with pytest.raises(ValueError):
            starter_y1(linear_problem(-1.0), 0.0)
        with pytest.raises(ValueError):
            reference_integrate(linear_problem(-1.0), 0.0, 0.1, 0)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: dataclasses.replace(linear_problem(-1.0), cache_key="lin|lam=-1"),
                     id="dense"),
        pytest.param(lambda: dataclasses.replace(burgers(12), reference=None), id="banded")])
    def test_starter_is_the_schedule_its_key_names(self, build):
        # y_1 is reference_integrate over (t0, t0 + h) in _STARTER_SUBSTEPS
        # steps, and the memo key names that same segment.
        prob, h = build(), 0.125
        t0, substeps = prob.t0, integrator_mod._STARTER_SUBSTEPS
        expected = reference_integrate(prob, t0, t0 + h, substeps)
        assert starter_y1(prob, h).tobytes() == expected.tobytes()
        assert integrator_mod._starter_key(prob, h) == record_key(
            prob.cache_key, ((t0, t0 + h, substeps),), prob.y0)


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
        sol = solve_damping(s, 0.05)
        l_even = 2.0 * sol.omega * s**2 / sol.beta
        target = 0.5 * (stability_length(sol) + l_even)
        assert max_abs_root(sol, -target) > 1.0 + 1e-4
        chosen = select_stages(target, 1.0)
        assert chosen == s + 1
        pair = solve_damping(chosen, 0.05)
        assert max_abs_root(pair, -target) <= 1.0 + INSIDE_TOL

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            select_stages(1e10, 1.0)

    def test_cap_is_solved_only_when_the_search_reaches_it(self, monkeypatch):
        solved = []
        original = integrator_mod.solve_damping

        def counted(s, eps=DEFAULT_EPS):
            solved.append(s)
            return original(s, eps)

        monkeypatch.setattr(integrator_mod, "solve_damping", counted)
        l_2047 = integrator_mod._length(STAGE_CAP - 1, DEFAULT_EPS)
        for target in (7.0, 47.0, 3000.0, 8e4):
            select_stages(target, 1.0)
        assert select_stages(np.nextafter(l_2047, 0.0), 1.0) == STAGE_CAP - 1
        assert STAGE_CAP not in solved

        l_cap = integrator_mod._length(STAGE_CAP, DEFAULT_EPS)
        assert select_stages(l_cap, 1.0) == STAGE_CAP
        with pytest.raises(CapacityError):
            select_stages(np.nextafter(l_cap, math.inf), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            select_stages(-1.0, 1.0)
        with pytest.raises(ValueError):
            select_stages(10.0, 0.0)


class TestBurgersCoarseStep:
    """burgers(40) at h = 0.25: a blow-up that no stage count prevents.

    The selector's h * rho(y0) <= l_s is a statement about the linearised
    problem at the start.  The stages start from the extrapolation
    v_0 = y_n + (a~ - 1)(y_n - y_{n-1}), with a~ - 1 ~ 19 at eps = 0.05, and
    that extrapolation grows until a stage leaves the finite range whatever
    s is.  Larger damping shortens it (a~ ~ 1/eps).
    """

    STAGE_COUNTS = (2, 3, 5, 8, 12, 20, 30, 50, 100, 200, 400)

    @pytest.mark.parametrize("s", STAGE_COUNTS)
    def test_every_stage_count_blows_up_at_the_default_damping(self, s):
        prob = dataclasses.replace(burgers(40), reference=None)
        with pytest.raises(BlowUpError) as err:
            integrate(design_method(s, DEFAULT_EPS), prob, 0.25)
        assert err.value.steps_done == (6 if s <= 12 else 5)

    def test_the_selected_stage_count_is_among_them(self):
        rho = estimate_spectral_radius(burgers(40))
        assert select_stages(rho, 0.25) in self.STAGE_COUNTS

    def test_auto_selection_at_eps_02_runs_stably(self):
        prob = burgers(40)
        s = select_stages(estimate_spectral_radius(prob), 0.25, 0.2)
        res = integrate(design_method(s, 0.2), prob, 0.25)
        assert (s, res.steps_taken) == (3, 9)
        assert res.endpoint_error == pytest.approx(2.53e-2, rel=2e-3)


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
            name="const",
            rhs=lambda t, y: np.array([1.0, -2.0]),
            t0=0.0, y0=np.zeros(2), t_out=1.0,
        )
        assert estimate_spectral_radius(prob) == 0.0
        assert select_stages(0.0, 0.5) == 2

    def test_start_direction_in_the_kernel_is_reseeded(self):
        # J = -[[1, 1], [1, 1]] sends the alternating start vector to exactly
        # zero at y0 = 0.  Without the shifted re-seed the estimate would be
        # 0 and every h would get s = 2; the re-seed finds |lambda| = 2.
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        prob = IvpProblem(name="kernel", rhs=lambda t, y: -(a @ y),
                          t0=0.0, y0=np.zeros(2), t_out=1.0)
        rho = estimate_spectral_radius(prob)
        assert rho == pytest.approx(1.05 * 2.0, rel=1e-6)
        assert select_stages(rho, 10.0) > 2
