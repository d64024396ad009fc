"""Two-step integrator: stage recurrence, accounting, stage selection."""
import contextlib
import dataclasses
import functools
import inspect
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsrk.design import (
    DEFAULT_EPS,
    DesignFailure,
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
from tsrk.problems import CACHE_ENV, IvpProblem, ReferenceValue, burgers, heat1d, vdpol
from tsrk.reference import record_key, reference_integrate
from tsrk.stability import INSIDE_TOL, max_abs_root

from conftest import called_through_a_wrapper, calls_of


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


# The largest state of the registry's fused models (HIRES); tests of a stage
# property run the sizes up to one above it.
SMALL = 8


@functools.cache
def zero_model(n):
    """The model f = 0 y of size n, one per n: ``integrate`` fuses it."""
    return problems_mod._model(n, "\n".join(f"f{i} = 0.0 * y{i}" for i in range(n)))


# The step sizes of the README's (rober) and the stiff-problem demo's sweeps.
WINDOW_STEPS = [("vdpol", 0.0025), ("rober", 10.0), ("hires", 0.625)]


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
        for dim in (3, *range(1, 3), *range(4, SMALL + 2), 64) for s in (2, 7, 40)])
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
        # The model's own rhs and a wrapper of it both run the array loop.
        assert prob.rhs.model[0] is prob.rhs
        y_prev, y_curr = prob.y0, starter_y1(prob, h)
        for k in range(1, 4):
            state = (prob.t0 + k * h, y_prev, y_curr, h)
            expected = indexed_step(method, prob.rhs, *state).tobytes()
            called = step(method, lambda t, v: prob.rhs(t, v), *state)
            assert called.tobytes() == expected
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
        # Python float would leave it single, NEP 50).  Values, not bytes: a
        # long double's bytes include padding.
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
        *[pytest.param(np.ones(p), np.ones(c), 0.1, "y_prev and y_curr must have identical shape",
                       id=f"{p}-{c}") for p, c in [(1, 3), (3, 1), (3, (3, 1))]],
        *[pytest.param(p, c, 0.1, "y_prev and y_curr must have identical shape", id=f"{p}-{c}")
          for p, c in [(1.0, [1.0, 2.0]), ([1.0, 2.0], 1.0), ([1.0], [[1.0]])]],
        *[pytest.param(np.ones(3), np.ones(3), h, "step size must be positive", id=f"h={h}")
          for h in (0.0, -0.1, math.nan)]])
    def test_mismatched_states_and_bad_step_sizes_are_rejected(self, prev, curr, h, message):
        calls = []

        def f(t, y):
            calls.append(t)
            return -y

        with pytest.raises(ValueError, match=message):
            step(design_method(5, 0.05), f, 0.0, prev, curr, h)
        assert calls == []

    @pytest.mark.parametrize("y_prev, y_curr", [
        pytest.param(1.0, 1.1, id="float"), pytest.param(2, 3, id="int"),
        pytest.param([0.5, -1.0], [0.51, -0.99], id="list"),
        pytest.param(np.array(1.0), np.array(1.1), id="0-d"),
        pytest.param(np.float32(1.0), np.float32(1.1), id="float32-scalar")])
    def test_a_state_that_is_not_an_array_steps_as_its_array(self, y_prev, y_curr):
        # Both states pass through np.asarray before anything else.
        def f(t, v):
            return math.cos(t) - v

        method, state = design_method(5, 0.05), (0.3, y_prev, y_curr, 0.1)
        out = step(method, f, *state)
        expected = step(method, f, 0.3, np.array(y_prev), np.array(y_curr), 0.1)
        assert isinstance(out, np.ndarray)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert out.tobytes() == indexed_step(method, f, 0.3, np.array(y_prev),
                                             np.array(y_curr), 0.1).tobytes()

    def test_an_infinite_step_size_is_rejected_before_any_stage(self):
        calls = []

        def f(t, y):
            calls.append(t)
            return -y

        with pytest.raises(ValueError, match="step size must be positive and finite, got inf"):
            step(design_method(5, 0.05), f, 0.0, np.ones(3), np.ones(3), math.inf)
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

    @pytest.mark.parametrize("name, h", WINDOW_STEPS)
    def test_a_model_rhs_is_called_on_every_stage(self, name, h):
        # step has one loop: a registry model's own rhs is called once per
        # stage, as any f is (its calls are those of the row function
        # generated from its text), with the bits of the indexed reference.
        prob = getattr(problems_mod, name)()
        method = design_method(select_stages(estimate_spectral_radius(prob), h), 0.05)
        state = (prob.t0 + h, prob.y0, starter_y1(prob, h), h)
        with calls_of(prob.rhs) as calls:
            out = step(method, prob.rhs, *state)
        assert len(calls) == method.s
        assert out.tobytes() == indexed_step(method, prob.rhs, *state).tobytes()

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
        for dim in (4, 1, SMALL, 64) for bad in (math.nan, math.inf, -math.inf, 2e15)])
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

    @pytest.mark.parametrize("dim, size", [
        pytest.param(dim, size, id=f"n{dim}-{kind}")
        for dim in (1, 3, 9, 64) for kind, size in (("short", int(dim > 1)), ("long", dim + 1))])
    def test_a_later_rhs_value_of_the_wrong_shape_is_rejected(self, dim, size):
        # f's first value has the state's shape; its value for stage 2 has
        # one component (none for n = 1) or one too many.  One component
        # would broadcast through the stage and be taken silently.
        calls = []

        def f(t, v):
            calls.append(t)
            return -v if len(calls) == 1 else np.ones(size)

        y = np.ones(dim)
        with pytest.raises(ValueError, match=rf"shape \({size},\) for a state of "
                                             rf"shape \({dim},\) at stage 2"):
            step(design_method(5, 0.05), f, 0.0, y, y, 0.1)
        assert len(calls) == 2

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
        # A fused run's shortcut (the sum of squares) must never pass what the
        # max-norm rejects; where it fails, ``step`` replays the step and its
        # max-norm decides.  Here v_0 of the one step is the values: a~ = 1
        # and y_0 = 0, and the stages of f = 0 y keep it.
        v = np.array(values)
        n = len(values)
        method = dataclasses.replace(design_method(2, 0.05), a_tilde=1.0, m_tilde=np.zeros(2))
        prob = IvpProblem(name="v0", rhs=zero_model(n), t0=0.0, y0=np.zeros(n), t_out=2.0)
        raised = []
        with np.errstate(over="ignore", invalid="ignore"):
            expected = not np.abs(v).max() <= BLOWUP_NORM
            for check in (lambda: integrator_mod._check_stage(v, 0, 0.0),
                          lambda: integrate(method, prob, 1.0, y1=v)):
                try:
                    check()
                    raised.append(False)
                except BlowUpError as exc:
                    raised.append(exc.stage == 0)
        assert raised == [expected, expected]

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

    def test_step_count_is_capped(self):
        assert integrator_mod._step_count(1.0, 1e-7) == 10**7
        for h in (5e-8, 1e-320):  # 2e7 steps, and a count that overflows to inf
            with pytest.raises(ValueError, match="increase h"):
                integrator_mod._step_count(1.0, h)

    def test_an_infinite_step_size_is_rejected(self):
        with pytest.raises(ValueError, match="step size must be positive and finite, got inf"):
            integrate(design_method(3, 0.05), linear_problem(-1.0), math.inf)

    @pytest.mark.parametrize("h", [0.1, 0.15, 0.2])  # 1, 2/3 and 1/2 of a step
    def test_a_window_of_fewer_than_two_steps_is_rejected(self, h):
        # The starter takes the first step: a one-step window would run no
        # step of the method and report the starter's error as the method's.
        with pytest.raises(ValueError, match=r"must be an integer >= 2: the starter takes "
                                             r"the first step, the method the rest"):
            integrate(design_method(5, 0.05), heat1d(8), h)

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

    @pytest.mark.parametrize("h", [0.025, 0.05])  # four steps, and two, the fewest
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


class TestFusedModels:
    """The registry's models run as lines of the stage loop, not as calls."""

    @pytest.mark.parametrize("name, h", WINDOW_STEPS)
    def test_a_whole_window_is_bit_identical_on_three_paths(self, name, h):
        prob = getattr(problems_mod, name)()
        method = design_method(select_stages(estimate_spectral_radius(prob), h), 0.05)
        fused = integrate(method, prob, h)
        called = integrate(method, called_through_a_wrapper(prob), h)
        y_prev, y_curr = prob.y0, starter_y1(prob, h)
        for k in range(1, fused.steps_taken + 1):
            y_prev, y_curr = y_curr, indexed_step(method, prob.rhs, prob.t0 + k * h,
                                                  y_prev, y_curr, h)
        assert fused.y_end.tobytes() == called.y_end.tobytes() == y_curr.tobytes()

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "called"])
    def test_a_fused_stage_calls_no_model_function(self, fused):
        # Robertson's rhs calls the function compiled from its text.  A
        # fused step never calls the rhs; a wrapped one calls it per stage.
        prob = problems_mod.rober()
        h = 10.0
        method = design_method(select_stages(estimate_spectral_radius(prob), h), 0.05)
        y1 = starter_y1(prob, h)
        prob.reference()  # built before counting, if not yet in the cache
        with calls_of(prob.rhs) as calls:
            res = integrate(method, prob if fused else called_through_a_wrapper(prob), h, y1=y1)
        assert len(calls) == res.steps_taken * (0 if fused else method.s)

    @pytest.mark.parametrize("copies_attributes", [False, True], ids=["plain", "wraps"])
    def test_a_wrapped_model_is_called_on_every_stage(self, monkeypatch, copies_attributes):
        # As the benchmark's tracer does: the module's rhs is replaced before
        # rober() reads it.  A functools.wraps wrapper copies the model
        # attribute, and must still be called.
        h = 10.0
        plain = problems_mod.rober()
        method = design_method(select_stages(estimate_spectral_radius(plain), h), 0.05)
        expected = integrate(method, plain, h)  # memoizes the starter
        original = problems_mod._rober_rhs
        calls = []

        def counted(t, y):
            calls.append(t)
            return original(t, y)

        if copies_attributes:
            counted = functools.wraps(original)(counted)
            assert counted.model == original.model
        monkeypatch.setattr(problems_mod, "_rober_rhs", counted)
        prob = problems_mod.rober()
        assert prob.rhs is counted
        res = integrate(method, prob, h)
        assert len(calls) == res.stage_evals == res.steps_taken * method.s
        assert res.y_end.tobytes() == expected.y_end.tobytes()

    @pytest.mark.parametrize("prev_dtype, curr_dtype", [
        (np.float32, np.float64), (np.float64, np.float32), (np.float16, np.float64),
        (np.int64, np.float64), (np.float64, np.float64),
    ])
    def test_states_of_two_dtypes_match_indexed_coefficients(self, prev_dtype, curr_dtype):
        # A Python float times a float32 state stays float32 (NEP 50), so v_0
        # and y_{n+1} round in single precision where a state is narrower:
        # step runs the array loop on the model's rhs whatever the dtypes,
        # and a fused integrate makes both states float64 first.
        prob = problems_mod.rober()
        state = (0.3, np.array([1.0, 2e-5, 0.3]).astype(prev_dtype),
                 np.array([0.999, 2.1e-5, 0.31]).astype(curr_dtype), 1e-3)
        method = design_method(7, 0.05)
        out, expected = step(method, prob.rhs, *state), indexed_step(method, prob.rhs, *state)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    def test_the_fused_loop_reads_the_model_constant_at_call_time(self, monkeypatch):
        prob = problems_mod.vdpol()
        h = 0.0025
        method = design_method(select_stages(estimate_spectral_radius(prob), h), 0.05)
        y1 = starter_y1(prob, h)
        before = integrate(method, prob, h, y1=y1).y_end  # generates the fused loop
        monkeypatch.setattr(problems_mod, "VDPOL_EPS", 2.0 * problems_mod.VDPOL_EPS)
        fused = integrate(method, prob, h, y1=y1).y_end
        called = integrate(method, called_through_a_wrapper(prob), h, y1=y1).y_end
        assert fused.tobytes() == called.tobytes()
        assert fused.tobytes() != before.tobytes()

    @pytest.mark.parametrize("h, stage, fevals", [(2.5, 2, 197), (1.25, 3, 198)])
    def test_a_blow_up_reports_as_on_the_calling_loop(self, h, stage, fevals):
        # tsrk convergence --problem rober --h0 10 --halvings 3 --s 3 writes
        # these rows as "h,3,unstable,1,fevals": the step from t_2 = t0 + 2h
        # fails the generated loop's sum-of-squares test and blows up in
        # ``step``.
        method = design_method(3, 0.05)
        errors = []
        for prob in (problems_mod.rober(), called_through_a_wrapper(problems_mod.rober())):
            with pytest.raises(BlowUpError) as err:
                integrate(method, prob, h)
            errors.append((err.value.stage, err.value.t, err.value.steps_done, err.value.fevals))
        assert errors[0] == errors[1] == (stage, prob.t0 + 2 * h, 1, fevals)

    # (s, h, y_1 as a multiple of y_0 or None for the starter's) per model:
    # stable runs, and runs that end at v_0 and at a stage of the parity of s
    # and of the other, at odd and even s.
    RUNS = {
        "vdpol": [(62, 0.0025, None), (63, 0.0025, None), (4, 0.0025, 1e15), (3, 0.01, None),
                  (3, 0.0025, None), (5, 0.005, None), (4, 0.005, None), (4, 0.01, None)],
        "rober": [(231, 10.0, None), (232, 10.0, None), (3, 10.0, 1e15), (3, 10.0, None),
                  (5, 50.0, None), (3, 50.0, None), (2, 50.0, None), (4, 10.0, None)],
        "hires": [(8, 0.625, None), (9, 0.625, None), (8, 0.625, 1e15), (3, 2.5, None),
                  (9, 5.0, None), (5, 1.25, None), (4, 2.5, None), (8, 12.5, None)],
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_a_run_ends_as_on_the_array_loop(self, name):
        # The fused call runs one stage per turn of its stage loop and leaves
        # a step that fails its sum-of-squares test to ``step``: the end
        # state, or the BlowUpError, is the array loop's, at odd and even s.
        prob = getattr(problems_mod, name)()
        sites = set()
        for s, h, scale in self.RUNS[name]:
            method = design_method(s, 0.05)
            y1 = None if scale is None else scale * prob.y0
            ends = []
            for problem in (prob, called_through_a_wrapper(prob)):
                try:
                    ends.append(integrate(method, problem, h, y1=y1).y_end.tobytes())
                except BlowUpError as exc:
                    ends.append((exc.stage, exc.t, exc.steps_done, exc.fevals))
            assert ends[0] == ends[1], (s, h, scale)
            stage = ends[0][0] if isinstance(ends[0], tuple) else None
            sites.add("stable" if stage is None else "v_0" if stage == 0
                      else ("stage and s of opposite parity", "stage and s of one parity")[
                          (stage - s) % 2 == 0])
        assert sites == {"stable", "v_0", "stage and s of one parity",
                         "stage and s of opposite parity"}

    @pytest.mark.parametrize("name", ["n", "stages", "rows"])
    def test_a_model_may_name_what_the_generated_code_does_not(self, name):
        # Every local of the generated functions other than y_i and f_i
        # starts with _, so a model's own n, stages or rows is its own: the
        # rhs gives f = -y / 2, and a fused run calls no rhs and ends on the
        # array loop's bits.
        rhs = problems_mod._model(1, f"{name} = 0.5\nf0 = -{name} * y0", "halved")
        assert rhs(0.0, np.array([2.0])).tolist() == [-1.0]
        prob = IvpProblem(name="halved", rhs=rhs, t0=0.0, y0=np.array([1.0]), t_out=1.0)
        method, y1 = design_method(3, 0.05), np.array([math.exp(-0.05)])
        with calls_of(rhs) as calls:
            fused = integrate(method, prob, 0.1, y1=y1)
        called = integrate(method, called_through_a_wrapper(prob), 0.1, y1=y1)
        assert calls == []
        assert fused.y_end.tobytes() == called.y_end.tobytes()
        assert abs(fused.y_end[0] - math.exp(-0.5)) < 1e-2  # not exp(-1), say

    def test_a_sum_of_squares_past_the_guard_runs_on_in_step(self):
        # Three components of 9e14: v.v ~ 2.4e30 > BLOWUP_NORM^2 with every
        # |v_i| <= BLOWUP_NORM.  The first step goes to ``step``, whose
        # max-norm passes, and the run ends there as the array loop does.
        prob = IvpProblem(name="big", rhs=zero_model(3), t0=0.0, y0=np.full(3, 9e14),
                          t_out=1.0)
        method, y1 = design_method(5, 0.05), np.full(3, 9e14)
        with calls_of(prob.rhs) as calls:
            fused = integrate(method, prob, 0.1, y1=y1)
        called = integrate(method, called_through_a_wrapper(prob), 0.1, y1=y1)
        assert len(calls) == fused.stage_evals > 0
        assert fused.y_end.tobytes() == called.y_end.tobytes()
        assert np.abs(fused.y_end).max() <= BLOWUP_NORM

    @pytest.mark.parametrize("name", ["vdpol", "rober", "hires"])
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_a_state_of_another_size_is_a_value_error(self, monkeypatch, name, offset):
        # The generated lines read the model's n components.  A state of
        # another size runs the array loop, whose call of the rhs raises; no
        # loop is generated for that size.
        monkeypatch.setattr(integrator_mod, "_stage_loop",
                            functools.cache(integrator_mod._stage_loop.__wrapped__))
        prob = getattr(problems_mod, name)()
        y = np.ones(prob.dim + offset)
        method = design_method(5)
        message = f"_{name}_rhs takes a state of size {prob.dim}, got size {prob.dim + offset}$"
        with pytest.raises(ValueError, match=message):
            step(method, prob.rhs, 0.0, y, y, 0.1)
        other = dataclasses.replace(prob, y0=y, cache_key=None)
        with pytest.raises(ValueError, match=message):
            integrate(method, other, (prob.t_out - prob.t0) / 10, y1=y)
        assert integrator_mod._stage_loop.cache_info().misses == 0

    def test_each_loop_is_generated_once(self, monkeypatch):
        # Two runs on the fused Robertson loop compile it once, not per step:
        # each run looks it up once.
        monkeypatch.setattr(integrator_mod, "_stage_loop",
                            functools.cache(integrator_mod._stage_loop.__wrapped__))
        loop = integrator_mod._stage_loop
        prob = problems_mod.rober()
        h = 10.0
        method = design_method(select_stages(estimate_spectral_radius(prob), h), 0.05)
        for _ in range(2):
            integrate(method, prob, h)
        info = loop.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        loop(problems_mod._rober_rhs)  # the loop the runs used
        assert loop.cache_info().misses == 1

    def test_a_model_generates_one_row_function_and_one_stage_loop(self, monkeypatch, tmp_path):
        # From empty generator caches and an empty record cache: building the
        # Robertson references (Radau IIA residuals) and one fused run, its
        # starter's trapezoidal steps calling the rhs, generate one function
        # of each kind, and the rhs, the residual and the derived Jacobian
        # (``reference._jacobian``, named jac) run one code object.
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(integrator_mod, "_STARTERS", {})
        for module, name in ((reference_mod, "_rows"), (integrator_mod, "_stage_loop")):
            monkeypatch.setattr(module, name, functools.cache(getattr(module, name).__wrapped__))
        original = problems_mod._rober_rhs
        rober_rhs = problems_mod._model(3, original.model[1], original.__name__)
        monkeypatch.setattr(problems_mod, "_rober_rhs", rober_rhs)
        callers = {}  # generated row code -> names of the functions that ran it

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith("<rows"):
                callers.setdefault(frame.f_code, set()).add(frame.f_back.f_back.f_code.co_name)

        h, previous = 10.0, sys.getprofile()
        sys.setprofile(profile)
        try:
            prob = problems_mod.rober()
            method = design_method(select_stages(estimate_spectral_radius(prob), h), 0.05)
            res = integrate(method, prob, h)
        finally:
            sys.setprofile(previous)
        assert res.starter_evals > 0 and res.endpoint_error is not None
        assert list(callers.values()) == [{"rhs", "fused", "jac"}]
        assert reference_mod._rows.cache_info().currsize == 1
        assert integrator_mod._stage_loop.cache_info().currsize == 1
        for fn in (reference_mod._rows, integrator_mod._stage_loop):
            assert list(inspect.signature(fn.__wrapped__).parameters) == ["rhs"]
        assert list(inspect.signature(reference_mod.lu_factor).parameters) == ["a"]
        assert list(inspect.signature(reference_mod.lu_solve).parameters) == ["lu_and_piv", "b"]

    @pytest.mark.parametrize("bad", [1e14, 1e200, math.nan], ids=["oversized", "overflowing", "nan"])
    def test_a_stage_0_blow_up_reports_as_on_the_calling_loop(self, bad):
        # v_0 = a~ y_1 + (1 - a~) y_0 of the first step fails the guard: the
        # fused call's sum-of-squares test, then ``step``'s max-norm test, whose
        # dot product overflows at 1e200 without a warning.
        method = design_method(3, 0.05)
        errors = []
        for prob in (problems_mod.rober(), called_through_a_wrapper(problems_mod.rober())):
            y1 = bad * prob.y0
            with pytest.raises(BlowUpError) as err:
                integrate(method, prob, 10.0, y1=y1)
            errors.append((err.value.stage, err.value.t, err.value.steps_done, err.value.fevals))
        assert errors[0] == errors[1] == (0, prob.t0 + 10.0, 0, 0)

    @pytest.mark.parametrize("name, h", WINDOW_STEPS[:2])
    def test_a_fused_run_stays_on_python_floats(self, monkeypatch, name, h):
        # A numpy float64 coefficient or state makes every later component a
        # numpy scalar, and the loop slower, with the same bits.  A run builds
        # one stage table, of its s stages, and makes one call of the loop.
        tables, runs = [], []
        table, generate = integrator_mod._stage_table, integrator_mod._stage_loop

        def table_spy(method, h):
            tables.append(table(method, h))
            return tables[-1]

        def loop_spy(rhs):
            loop = generate(rhs)

            def checked(*args):  # the stage table, n, y_prev, y_curr
                y_prev, y_curr = args[-2:]
                assert all(type(v) is float for v in y_prev + y_curr)
                runs.append(loop(*args))
                return runs[-1]
            return checked

        monkeypatch.setattr(integrator_mod, "_stage_table", table_spy)
        monkeypatch.setattr(integrator_mod, "_stage_loop", loop_spy)
        prob = getattr(problems_mod, name)()
        method = design_method(select_stages(estimate_spectral_radius(prob), h), 0.05)
        res = integrate(method, prob, h)
        [(*coefficients, stages)] = tables
        assert len(stages) == method.s
        assert all(len(stage) == 3 for stage in stages)
        assert all(type(x) is float for x in (*coefficients, *sum(stages, ())))
        [(done, y_prev, y_curr)] = runs
        assert done == res.steps_taken
        assert all(type(v) is float for v in y_prev + y_curr)
        assert res.y_end.tolist() == y_curr


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

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2, 0.3, 0.5])
    def test_matches_a_brute_force_search(self, eps):
        # The smallest s with l_s >= target, found by solving every s from 2;
        # each l_s itself, and the next float above it, sit on a threshold.
        lengths = [integrator_mod._length(s, eps) for s in range(2, 61)]
        edges = lengths[::7]
        for target in (0.0, 7.0, 47.0, 500.0, 3000.0, *edges,
                       *(np.nextafter(l, math.inf) for l in edges)):
            expected = next(s for s, l in enumerate(lengths, 2) if l >= target)
            assert select_stages(target, 1.0, eps) == expected, target

    @pytest.mark.parametrize("eps, target", [(0.5, 4e6), (0.2, 1.6e6)])
    def test_search_away_from_eps_005_solves_few_designs(self, monkeypatch, eps, target):
        # l_s / s^2 is about 1.127 at eps = 0.5, not the 1.901 of eps = 0.05:
        # the re-seed lands next to the answer, where a walk from the first
        # seed took 436 designs (eps = 0.5) and 79 (eps = 0.2).
        solved = []
        original = integrator_mod.solve_damping

        def counted(s, eps=DEFAULT_EPS):
            solved.append(s)
            return original(s, eps)

        monkeypatch.setattr(integrator_mod, "solve_damping", counted)
        s = select_stages(target, 1.0, eps)
        assert len(set(solved)) <= 4, sorted(set(solved))
        assert integrator_mod._length(s, eps) >= target > integrator_mod._length(s - 1, eps)

    @pytest.mark.parametrize("eps", [0.59, 0.60, 0.61, 0.62])
    def test_passes_over_stage_counts_without_a_design(self, eps):
        # From eps ~ 0.59 on, small s have no design (DesignFailure): s = 3
        # at 0.59, s = 2..12 at 0.62.  The answer is the smallest s that has
        # a design with l_s >= target, found by solving every s from 2.
        lengths = [integrator_mod._length(s, eps) for s in range(2, 121)]
        assert lengths[1] == -math.inf and lengths[-1] >= 1e4
        designed = [l for l in lengths if l > -math.inf]
        edges = designed[:4] + designed[4::9]
        for target in (*np.geomspace(1.0, 1e4, 41), *edges,
                       *(np.nextafter(l, math.inf) for l in edges)):
            expected = next(s for s, l in enumerate(lengths, 2) if l >= target)
            assert select_stages(target, 1.0, eps) == expected, target

    def test_no_design_up_to_the_cap_is_a_design_failure(self, monkeypatch):
        # At eps = 0.62 no s up to 12 has a design.
        monkeypatch.setattr(integrator_mod, "STAGE_CAP", 12)
        with pytest.raises(DesignFailure, match="no stage count up to 12 has a design at "
                                                "eps=0.62 reaching h \\* rho = 5; lower eps"):
            select_stages(5.0, 1.0, 0.62)
        monkeypatch.setattr(integrator_mod, "STAGE_CAP", 13)
        assert select_stages(5.0, 1.0, 0.62) == 13
        with pytest.raises(CapacityError):
            select_stages(170.0, 1.0, 0.62)

    def test_no_design_anywhere_fails_after_the_cap(self, monkeypatch):
        # From eps ~ 0.6224 on no s up to STAGE_CAP has a design.  The first
        # s without one has the search solve STAGE_CAP, which has none
        # either: it raises there, where a walk up solved every s to the cap.
        solve = functools.lru_cache(maxsize=None, typed=True)(solve_damping.__wrapped__)
        monkeypatch.setattr(integrator_mod, "solve_damping", solve)
        with pytest.raises(DesignFailure, match=f"no stage count up to {STAGE_CAP} has a design "
                                                "at eps=0.65 reaching h \\* rho = 101210; "):
            select_stages(10121.0, 10.0, 0.65)
        assert solve.cache_info().misses <= 3

    def test_overflowing_target_is_a_capacity_error(self):
        # h * rho = inf needs more stages than any cap, like a finite target
        # past l_STAGE_CAP; an infinite h is no step size at all.
        with pytest.raises(CapacityError, match="h \\* rho = inf"):
            select_stages(1e10, 1e300)
        with pytest.raises(ValueError, match="step size must be positive"):
            select_stages(0.0, math.inf)

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
        # J = -[[1, 1], [1, 1]] sends the alternating vector (1, -1) to exactly
        # zero at y0 = 0: a power iteration started there, and not re-seeded,
        # would estimate 0 and give every h s = 2.  J's eigenvalues are 0 and
        # -2, so the eigenvalue estimate has no start vector to get wrong.
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        prob = IvpProblem(name="kernel", rhs=lambda t, y: -(a @ y),
                          t0=0.0, y0=np.zeros(2), t_out=1.0)
        rho = estimate_spectral_radius(prob)
        assert rho == pytest.approx(1.05 * 2.0, rel=1e-6)
        assert select_stages(rho, 10.0) > 2

    def test_non_finite_f_at_the_start_is_a_value_error(self):
        prob = IvpProblem(name="inf", rhs=lambda t, y: np.array([np.inf, 0.0]),
                          t0=0.0, y0=np.zeros(2), t_out=1.0)
        with pytest.raises(ValueError, match=r"f\(t0, y0\) is not finite"):
            estimate_spectral_radius(prob)

    def test_non_finite_difference_jacobian_is_a_value_error(self):
        # f is finite at y0 = 0 and inf just above it, in every component.
        prob = IvpProblem(name="wall", rhs=lambda t, y: np.where(y > 0.0, np.inf, -y),
                          t0=0.0, y0=np.zeros(3), t_out=1.0)
        with pytest.raises(ValueError, match="difference Jacobian .* is not finite"):
            estimate_spectral_radius(prob)


def random_linear_system(kind, n, rng):
    """(A, rho): a y' = A y whose spectral radius rho is known by construction.

    ``symmetric``: negative definite.  ``non-normal``: Q T Q^T with T upper
    triangular, its off-diagonal as large as its diagonal.  ``complex``: a
    pair x +- iy with x < 0, in a non-normal 2x2 block, dominates the real
    negative eigenvalues.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.1, 100.0, n)
    if kind == "symmetric":
        return -(q * lam) @ q.T, lam.max()
    if kind == "non-normal":
        t = np.diag(-lam) + np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1) * lam.max()
        return q @ t @ q.T, lam.max()
    r, theta = rng.uniform(1.2, 2.0) * lam.max(), rng.uniform(0.55, 0.95) * np.pi
    x, y, k = r * np.cos(theta), r * np.sin(theta), rng.uniform(1.0, 3.0)
    b = np.diag(-lam)
    b[:2, :2] = [[x, k * y], [-y / k, x]]  # eigenvalues x +- iy, non-normal for k > 1
    return q @ b @ q.T, r


class TestSpectralRadiusOfRandomSystems:
    """The estimate never falls below rho, so ``select_stages`` keeps h rho <= l_s.

    On these 37 cases per kind, a power iteration stopped at 1 % agreement
    fell below rho in 6 symmetric (to 0.84 rho), 1 non-normal (0.92 rho) and
    14 complex-pair ones (0.43 rho).
    """

    KINDS = ("symmetric", "non-normal", "complex")

    @pytest.mark.parametrize("kind", KINDS)
    def test_estimate_is_at_least_rho(self, kind):
        rng = np.random.default_rng(self.KINDS.index(kind))
        for n in [*range(2, 9)] * 5 + [50] * 2:
            a, rho = random_linear_system(kind, n, rng)
            prob = IvpProblem(name=kind, rhs=lambda t, y, a=a: a @ y,
                              t0=0.0, y0=np.ones(n), t_out=1.0)
            assert estimate_spectral_radius(prob) >= rho, (kind, n)

    def test_selected_stage_count_keeps_the_step_inside_the_interval(self):
        # A 7x7 case where the power iteration estimated 0.637 rho: s = 3, a
        # true h rho / l_3 of 1.46, and |y_end| = 4.3e6 for a decaying system.
        rng = np.random.default_rng(78)
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        a = -(q * rng.uniform(0.1, 100.0, 7)) @ q.T
        rho = float(np.abs(np.linalg.eigvals(a)).max())
        prob = IvpProblem(name="spd7", rhs=lambda t, y: a @ y,
                          t0=0.0, y0=np.ones(7), t_out=2.0)
        h = 1.0 / 3.0
        s = select_stages(estimate_spectral_radius(prob), h)
        assert h * rho / stable_interval_length(solve_damping(s, DEFAULT_EPS)) <= 1.0
        res = integrate(design_method(s, DEFAULT_EPS), prob, h)
        assert np.abs(res.y_end).max() < 10.0
