"""Design module: damping solve, polynomial pairs, method coefficients."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsrk.design as design_mod
from tsrk.chebyshev import cheb_t_derivs
from tsrk.design import (
    DEFAULT_EPS,
    DesignFailure,
    TwoStepMethod,
    build_method,
    build_undamped_pair,
    design_method,
    error_constant,
    solve_damping,
    stability_length,
    stable_interval_length,
)
from tsrk.stability import INSIDE_TOL, max_abs_root

S5_TRIPLE = (0.950022296412323, 1.0020498847775692, 1.053083013172171)

# Damped pair for s = 5, eps = 0.05: monomial coefficients of R1 and R0.
S5_R1 = (1.949130847897793, 1.0169295750648126, 0.17002420291058604,
         0.009987615599077876, 0.00023977479170518486, 0.000002015889739363028)
S5_R0 = (-0.949130847897793, -0.9660604229626043, -0.16151920192429445,
         -0.009488012136354805, -0.00022778070612777503, -0.00000191505030634093)

# Recurrence-form parameters of the same design.
S5_A_TILDE = 19.991085619464535
S5_A = 0.950022296412323
S5_B = 0.04997770358767691
S5_M = (1.9918588786954916, 1.9838492426656018, 1.9760315849167438,
        1.9684604922450784)
S5_M_TILDE = (0.04203714921461939, 0.08373206889818684, 0.08339536663324355,
              0.08306673458794599, 0.08274846743558949)
S5_C = (18.991085619464535, 19.033122768679153, 19.158549757260907,
        19.365346371620134, 19.65025313347653)


def hyperbolic_t_derivs(s: int, x: float):
    """Independent T, T', T'' for x > 1 through hyperbolic closed forms."""
    th = math.acosh(x)
    sh, ch = math.sinh(th), math.cosh(th)
    t = math.cosh(s * th)
    t1 = s * math.sinh(s * th) / sh
    t2 = s**2 * math.cosh(s * th) / sh**2 - s * math.sinh(s * th) * ch / sh**3
    return t, t1, t2


class TestDesignInput:
    """solve_damping's checks of the stage count s and the damping eps."""

    def test_eta_is_derived_exactly(self):
        assert solve_damping(7, 0.05).eta == 1.0 - 0.05

    def test_single_stage_rejected(self):
        with pytest.raises(ValueError):
            solve_damping(1, 0.05)

    def test_eps_bounds(self):
        with pytest.raises(ValueError):
            solve_damping(5, 0.0)
        with pytest.raises(ValueError):
            solve_damping(5, 1.0)

    def test_non_integer_stage_rejected(self):
        with pytest.raises(ValueError):
            solve_damping(5.5, 0.05)

    def test_cache_does_not_admit_an_equal_float_stage_count(self):
        solve_damping(5, 0.05)
        with pytest.raises(ValueError, match="must be an integer, got 5.0"):
            solve_damping(5.0, 0.05)
        assert type(solve_damping(np.int64(5), 0.05).s) is int

    def test_default_damping(self):
        assert solve_damping(5).eps == DEFAULT_EPS


# Bits of solve_damping(s) and taylor_coefficients(4) at eps = 0.05, as
# float.hex: (alpha, omega, beta), then r1_0..r1_3 and r0_0..r0_3.  The
# tolerance tests above would pass a silent change of rounding; these do not.
DESIGN_BITS = {
    2: (("0x1.e669a64ac8bc9p-1", "0x1.0347657105527p+0", "0x1.0f111f64d203fp+0"),
        ("0x1.f2f3ddc41bef9p+0", "0x1.04d19164d83a2p+0", "0x1.10ad371444bf0p-3",
         "0x0.0p+0"),
        ("-0x1.e5e7bb8837dc6p-1", "-0x1.ef8ade51e82aap-1", "-0x1.0309394b729fap-3",
         "-0x0.0p+0")),
    5: (("0x1.e669528b1f9dfp-1", "0x1.0086575c148a2p+0", "0x1.0d96d92d8c595p+0"),
        ("0x1.f2fa3d3f588cdp+0", "0x1.04557f233d3c3p+0", "0x1.5c35a6383cb4dp-3",
         "0x1.4746312e794e1p-7"),
        ("-0x1.e5f47a7eb1173p-1", "-0x1.ee9f78c52b7b6p-1", "-0x1.4aca944f874a9p-3",
         "-0x1.36e736ea3400ep-7")),
    50: (("0x1.e66942cc057cep-1", "0x1.000157ee56a19p+0", "0x1.0d4fa2dd0b42cp+0"),
         ("0x1.f2fb7004de250p+0", "0x1.043e2a6fd236bp+0", "0x1.6a69f86f769b3p-3",
          "0x1.94d64571448ccp-7"),
         ("-0x1.e5f6e009bc4a5p-1", "-0x1.ee7334e960df1p-1", "-0x1.58490c0180c54p-3",
          "-0x1.8096187ab7bfbp-7")),
    1000: (("0x1.e66942a36c882p-1", "0x1.000000dc1daf6p+0", "0x1.0d4eeb3a87900p+0"),
           ("0x1.f2fb731baa00fp+0", "0x1.043dee48b510ep+0", "0x1.6a8e97d7cd5f1p-3",
            "0x1.95a4de1d70ac7p-7"),
           ("-0x1.e5f6e63757471p-1", "-0x1.ee72c2c900a93p-1", "-0x1.586bd68cfc3f2p-3",
            "-0x1.815a5bb085cf7p-7")),
}


@pytest.mark.parametrize("s", sorted(DESIGN_BITS))
def test_design_bits_are_pinned(s):
    triple, r1_bits, r0_bits = DESIGN_BITS[s]
    pair = solve_damping(s, 0.05)
    assert (pair.alpha.hex(), pair.omega.hex(), pair.beta.hex()) == triple
    r1, r0 = pair.taylor_coefficients(4)
    assert tuple(float(v).hex() for v in r1) == r1_bits
    assert tuple(float(v).hex() for v in r0) == r0_bits


class TestSolveDamping:
    def test_reproduces_known_triple(self):
        sol = solve_damping(5, 0.05)
        assert sol.alpha == pytest.approx(S5_TRIPLE[0], abs=1e-10)
        assert sol.omega == pytest.approx(S5_TRIPLE[1], abs=1e-10)
        assert sol.beta == pytest.approx(S5_TRIPLE[2], abs=1e-10)
        assert sol.residual < 1e-12

    def test_two_stage_interval_length(self):
        sol = solve_damping(2, 0.05)
        assert stability_length(sol) == pytest.approx(7.6531, abs=5e-4)

    def test_residual_through_independent_evaluation(self):
        # Re-evaluate all three design equations with hyperbolic-form T_s.
        sol = solve_damping(10, 0.05)
        s, eta2 = 10, sol.eta**2
        t, t1, t2 = hyperbolic_t_derivs(s, sol.omega)
        th = sol.beta / s**2
        d = sol.alpha - eta2
        e1 = sol.alpha * (1 + t) - eta2 * t - 1.0
        e2 = sol.alpha * (1 + t) + d * th * t1 - 2.0
        e3 = sol.alpha * (1 + t) / 2 + sol.alpha * th * t1 + d * th**2 * t2 / 2 - 2.0
        assert max(abs(e1), abs(e2), abs(e3)) < 1e-12

    def test_bracket_invariants(self):
        for s in (2, 3, 5, 10, 50):
            sol = solve_damping(s, 0.05)
            assert 0.0 < sol.alpha < 1.0
            assert sol.omega > 1.0
            assert sol.beta > 1.0

    def test_iteration_budget_across_stage_counts(self):
        for s in (2, 3, 5, 8, 13, 21, 50, 100, 200, 500, 713, 1000):
            sol = solve_damping(s, 0.05)
            assert sol.iterations <= 20, f"s={s} took {sol.iterations} iterations"

    def test_large_s_residual_floor_is_recorded(self):
        # Past s ~ 200 the recurrence evaluation floor exceeds 1e-12; the
        # achieved residual is recorded instead of failing the solve.
        sol = solve_damping(1000, 0.05)
        assert sol.residual < 1e-9

    @pytest.mark.parametrize("eps", [5.5e-17, 5e-17, 1e-300])
    def test_eps_that_rounds_eta_to_one_raises(self, eps):
        # eta = 1 - eps rounds to 1, so alpha - eta^2 = 0 and a~ = alpha/0.
        for s in (2, 3, 10):
            with pytest.raises(DesignFailure, match=rf"s={s}, eps={eps}\).*raise eps"):
                solve_damping(s, eps)
        assert solve_damping(2, 1e-16).alpha > (1.0 - 1e-16) ** 2

    def test_omega_below_one_raises_from_three_stages(self):
        with pytest.raises(DesignFailure, match=r"s=10, eps=0.63\).*omega = 0.99.* < 1; lower eps"):
            solve_damping(10, 0.63)
        # T_2 peaks at the ends of [-omega, omega]: the s = 2 design stays.
        assert solve_damping(2, 0.585).omega < 1.0

    def test_iteration_exhaustion_raises_with_residual(self, monkeypatch):
        # Past the cache: a cached solution would hide the patched budget.
        monkeypatch.setattr(design_mod, "_NEWTON_MAX_ITER", 0)
        with pytest.raises(DesignFailure) as err:
            solve_damping.__wrapped__(5, 0.05)
        assert err.value.residual is not None
        assert err.value.residual > 1e-12


@settings(max_examples=40, deadline=None, database=None)
@given(s=st.integers(2, 1000),
       eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_damping_solve_converges_or_raises_design_failure(s, eps):
    # Any other exception, or a non-finite or under-converged triple, fails;
    # a returned pair builds its method.
    try:
        pair = solve_damping.__wrapped__(s, eps)
        build_method(pair)
    except DesignFailure:
        return
    assert all(math.isfinite(v) for v in (pair.alpha, pair.omega, pair.beta))
    assert pair.residual <= max(1e-12, s**2 * 1e-15)


class TestStabilityPair:
    def test_monomial_coefficients_match_known_pair(self):
        pair = solve_damping(5, 0.05)
        r1, r0 = pair.taylor_coefficients(pair.s + 1)
        assert np.allclose(r1, S5_R1, rtol=1e-10)
        assert np.allclose(r0, S5_R0, rtol=1e-10)

    def test_preconsistency(self):
        for s in (2, 3, 5, 10, 20, 50):
            pair = solve_damping(s, 0.05)
            r1, r0 = pair.char_polys(0.0)
            assert abs(r1 + r0 - 1.0) < 1e-12

    def test_order_conditions(self):
        for s in (2, 3, 5, 10, 20, 50):
            pair = solve_damping(s, 0.05)
            r1, r0 = pair.taylor_coefficients(3)
            a = r1[0]
            assert abs(r0[1] + r1[1] + a - 2.0) < 1e-10
            assert abs(r0[2] + r1[2] + r1[1] + a / 2.0 - 2.0) < 1e-10

    def test_taylor_coefficient_count_is_checked(self):
        pair = solve_damping(40, 0.05)
        r1, r0 = pair.taylor_coefficients(35)
        assert r1.shape == r0.shape == (35,)
        assert np.all(np.isfinite(r1)) and np.all(np.isfinite(r0))
        for count in (0, 36):
            with pytest.raises(ValueError, match=r"count must be in 1\.\.35"):
                pair.taylor_coefficients(count)

    def test_undamped_pair_values(self):
        pair = build_undamped_pair(5)
        r1, r0 = pair.char_polys(0.0)
        assert r1 == pytest.approx(2.0, abs=1e-14)
        assert r0 == pytest.approx(-1.0, abs=1e-14)

    def test_undamped_equioscillation(self):
        pair = build_undamped_pair(5)
        mu = np.linspace(-2 * 25.0, 0.0, 1000)
        _, r0 = pair.char_polys(mu)
        assert np.max(np.abs(r0)) <= 1.0 + 1e-12


class TestErrorConstant:
    def test_undamped_closed_form(self):
        assert error_constant(build_undamped_pair(3)) == pytest.approx(
            1.0 / 3.0 + 1.0 / 54.0, abs=1e-12)
        assert error_constant(build_undamped_pair(10)) == pytest.approx(
            1.0 / 3.0 + 1.0 / 600.0, abs=1e-12)

    def test_damped_values(self):
        c5 = error_constant(solve_damping(5, 0.05))
        assert c5 == pytest.approx(0.32949, abs=5e-5)
        c100 = error_constant(solve_damping(100, 0.05))
        assert c100 == pytest.approx(0.322558, abs=5e-6)

    def test_small_s_missing_coefficients_are_zero(self):
        # Degree-2 pair: third-order coefficients vanish identically.
        pair = solve_damping(2, 0.05)
        r1, r0 = pair.taylor_coefficients(4)
        assert r1[3] == 0.0 and r0[3] == 0.0
        assert error_constant(pair) == pytest.approx(0.36594, abs=1e-5)


class TestStabilityLength:
    def test_table_values(self):
        assert stability_length(solve_damping(5, 0.05)) == pytest.approx(
            47.5779, abs=1e-3)
        assert stability_length(solve_damping(20, 0.05)) == pytest.approx(
            760.5155, abs=1e-2)

    def test_asymptotic_ratio(self):
        sol = solve_damping(1000, 0.05)
        assert stability_length(sol) / 1000**2 == pytest.approx(1.901167, abs=1e-6)

    def test_monotone_growth_and_ratio_bracket(self):
        lengths = []
        for s in (2, 3, 4, 5, 8, 13, 20, 50, 144, 500, 1000):
            l_s = stability_length(solve_damping(s, 0.05))
            assert 1.9011 <= l_s / s**2 <= 1.9133
            lengths.append(l_s)
        assert all(a < b for a, b in zip(lengths, lengths[1:]))


class TestStableIntervalLength:
    def test_equals_closed_form_for_odd_s(self):
        for s in range(3, 65, 2):
            sol = solve_damping(s, 0.05)
            assert stable_interval_length(sol) == stability_length(sol)

    def test_ends_at_minus_omega_for_even_s(self):
        # T_s(-omega) = T_s(omega): the interval ends where zeta = 1 returns,
        # about 9e-4 before the closed form.
        for s in range(2, 65, 2):
            sol = solve_damping(s, 0.05)
            l_even = 2.0 * sol.omega * s**2 / sol.beta
            assert stable_interval_length(sol) == pytest.approx(l_even, rel=1e-14)
            assert 8e-4 <= stability_length(sol) - l_even <= 1.1e-3


def test_every_returned_design_is_stable_on_its_interval():
    # eps coarse from 0.05, fine from 0.55 to past the solve's limit: each
    # design solve_damping returns has max |zeta| <= 1 + INSIDE_TOL at 4001
    # points of [-l_interval, 0].  Designs with omega < 1 at s >= 3 broke it.
    eps_grid = [k / 100 for k in range(5, 55, 5)] + [k / 1000 for k in range(550, 705, 5)]
    returned = 0
    for eps in eps_grid:
        for s in [*range(2, 41), 60, 100]:
            try:
                pair = solve_damping(s, eps)
            except DesignFailure:
                continue
            returned += 1
            mu = np.linspace(-stable_interval_length(pair), 0.0, 4001)
            worst = float(np.max(max_abs_root(pair, mu)))
            assert worst <= 1.0 + INSIDE_TOL, (s, eps, pair.omega, worst)
    assert returned > 800
    for s in (2, 3, 10, 40):  # the grid ends past the solve's limit
        with pytest.raises(DesignFailure):
            solve_damping(s, eps_grid[-1])


class TestBuildMethod:
    def test_known_parameters(self):
        method = build_method(solve_damping(5, 0.05))
        assert method.a_tilde == pytest.approx(S5_A_TILDE, abs=1e-9)
        assert method.a == pytest.approx(S5_A, abs=1e-9)
        assert method.b == pytest.approx(S5_B, abs=1e-9)
        assert np.allclose(method.m, S5_M, atol=1e-9)
        assert np.allclose(method.m_tilde, S5_M_TILDE, atol=1e-9)
        assert np.allclose(method.c, S5_C, atol=1e-9)

    def test_parameter_identities(self):
        sol = solve_damping(12, 0.05)
        method = build_method(sol)
        eta2 = sol.eta**2
        t_s = cheb_t_derivs(12, sol.omega, order=0)[0]
        assert method.a == pytest.approx(sol.alpha, abs=1e-12)
        assert method.b == pytest.approx((sol.alpha - eta2) * t_s, rel=1e-12)
        assert method.a_tilde == pytest.approx(sol.alpha / (sol.alpha - eta2),
                                               rel=1e-12)
        assert method.m_tilde[0] == pytest.approx(sol.beta / (sol.omega * 144),
                                                  rel=1e-12)

    def test_lengths(self):
        for s in (2, 3, 7):
            method = build_method(solve_damping(s, 0.05))
            assert method.m.shape == (s - 1,)
            assert method.m_tilde.shape == (s,)
            assert method.c.shape == (s,)

    def test_c_recurrence_as_stored(self):
        method = build_method(solve_damping(9, 0.05))
        assert method.c[0] == method.a_tilde - 1.0
        assert method.c[1] == method.a_tilde - 1.0 + method.m_tilde[0]
        for j in range(2, 9):
            expected = (method.m[j - 2] * method.c[j - 1]
                        + (1.0 - method.m[j - 2]) * method.c[j - 2]
                        + method.m_tilde[j - 1])
            assert method.c[j] == expected

    def test_time_consistency_weight(self):
        # b * c_s = 1: constant-slope solutions advance exactly one h per step.
        for s in (2, 5, 17):
            method = build_method(solve_damping(s, 0.05))
            c_s = (method.m[-1] * method.c[-1]
                   + (1.0 - method.m[-1]) * method.c[-2] + method.m_tilde[-1])
            assert method.b * c_s == pytest.approx(1.0, abs=1e-11)


class TestRebuildPair:
    def test_preconsistency_at_zero(self):
        method = design_method(5, 0.05)
        r1, r0 = method.char_polys(0.0)
        assert float(r1) + float(r0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form(self):
        pair = solve_damping(5, 0.05)
        method = design_method(5, 0.05)
        r1m, r0m = method.char_polys(-10.0)
        r1p, r0p = pair.char_polys(-10.0)
        assert float(r1m) == pytest.approx(float(r1p), rel=1e-10)
        assert float(r0m) == pytest.approx(float(r0p), rel=1e-10)

    def test_sampled_agreement(self):
        rng = np.random.default_rng(7)
        for s in (2, 5, 10, 50):
            pair = solve_damping(s, 0.05)
            method = design_method(s, 0.05)
            mu = -method.l_s * rng.uniform(0.0, 1.0, size=20)
            r1m, r0m = method.char_polys(mu)
            r1p, r0p = pair.char_polys(mu)
            scale1 = np.maximum(np.abs(r1p), 1e-12)
            scale0 = np.maximum(np.abs(r0p), 1e-12)
            assert np.max(np.abs(r1m - r1p) / scale1) < 1e-9
            assert np.max(np.abs(r0m - r0p) / scale0) < 1e-9

    @pytest.mark.parametrize("s", [50, 231])
    def test_narrow_dtypes_evaluate_as_double(self, s):
        # The m_j are Python floats, weak under NEP 50: on an unpromoted
        # float32 mu every factor after P_1 would round to single precision.
        method = design_method(s, 0.05)
        mu = np.linspace(-1.05 * method.l_s, 0.0, 2001)
        for narrow, wide in ((mu.astype(np.float32), np.float64),
                             (np.rint(mu).astype(np.int64), np.float64),
                             ((mu + 0.5j * mu).astype(np.complex64), np.complex128)):
            got, want = method.char_polys(narrow), method.char_polys(narrow.astype(wide))
            assert got[0].dtype == got[1].dtype == wide
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
            assert (max_abs_root(method, narrow).tobytes()
                    == max_abs_root(method, narrow.astype(wide)).tobytes())

    def test_roots_in_unit_disk_at_interval_end(self):
        # For even s the true interval ends at shifted argument -omega,
        # i.e. at 2 omega s^2 / beta, a hair before the closed-form length
        # (which solves the odd-parity crossing); the roots sit exactly on
        # the unit circle there and just outside it at the closed-form point.
        sol = solve_damping(2, 0.05)
        method = design_method(2, 0.05)
        l_even = 2.0 * sol.omega * 4.0 / sol.beta
        r1, r0 = method.char_polys(-l_even)
        roots = np.roots([1.0, -float(r1), -float(r0)])
        assert np.max(np.abs(roots)) <= 1.0 + 1e-9
        r1, r0 = method.char_polys(-method.l_s)
        roots = np.roots([1.0, -float(r1), -float(r0)])
        assert np.max(np.abs(roots)) == pytest.approx(1.001, abs=5e-4)


class TestSerialization:
    def test_round_trip_is_bit_identical(self, tmp_path):
        method = design_method(7, 0.05)
        path = tmp_path / "method.json"
        method.save(path)
        loaded = TwoStepMethod.load(path)
        assert loaded.a == method.a
        assert loaded.a_tilde == method.a_tilde
        assert loaded.b == method.b
        assert loaded.l_s == method.l_s
        assert loaded.err_const == method.err_const
        assert np.array_equal(loaded.m, method.m)
        assert np.array_equal(loaded.m_tilde, method.m_tilde)
        assert np.array_equal(loaded.c, method.c)

    @settings(max_examples=40, deadline=None, database=None)
    @given(s=st.integers(2, 20), data=st.data())
    def test_save_load_round_trip_of_any_finite_values(self, tmp_path_factory, s, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        vec = lambda n: np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
        method = TwoStepMethod(
            s=s, eps=data.draw(finite), a=data.draw(finite),
            a_tilde=data.draw(finite), b=data.draw(finite), m=vec(s - 1),
            m_tilde=vec(s), c=vec(s), l_s=data.draw(finite),
            err_const=data.draw(finite),
        )
        path = tmp_path_factory.mktemp("method") / "method.json"
        method.save(path)
        loaded = TwoStepMethod.load(path)
        for name in ("s", "eps", "a", "a_tilde", "b", "m", "m_tilde", "c", "l_s",
                     "err_const"):
            # Bytes, not ==: -0.0 must come back as -0.0.
            assert (np.asarray(getattr(loaded, name)).tobytes()
                    == np.asarray(getattr(method, name)).tobytes()), name

    def test_file_schema(self, tmp_path):
        method = design_method(3, 0.05)
        path = tmp_path / "method.json"
        method.save(path)
        data = json.loads(path.read_text())
        assert list(data) == ["s", "eps", "a", "a_tilde", "b", "m", "m_tilde",
                              "c", "l_s", "err_const", "order", "steps"]
        assert data["order"] == 2 and data["steps"] == 2
        assert len(data["m"]) == 2 and len(data["m_tilde"]) == 3
        assert len(data["c"]) == 3

    def test_from_dict_coerces_outside_input(self):
        data = design_method(3, 0.05).to_dict()
        data.update(s=5.0, eps=0, a=1, a_tilde=2, b=-1, l_s=40, err_const=0,
                    m=[1, 1, 1, 1], m_tilde=[1, 2, 3, 4, 5], c=[0, 0, 0, 0, 0])
        method = TwoStepMethod.from_dict(data)
        assert type(method.s) is int and method.s == 5
        for name in ("eps", "a", "a_tilde", "b", "l_s", "err_const"):
            assert type(getattr(method, name)) is float, name
        for name in ("m", "m_tilde", "c"):
            assert getattr(method, name).dtype == np.float64, name

    def test_length_validation(self):
        method = design_method(3, 0.05)
        with pytest.raises(ValueError):
            TwoStepMethod(
                s=3, eps=0.05, a=method.a, a_tilde=method.a_tilde, b=method.b,
                m=np.zeros(5), m_tilde=method.m_tilde, c=method.c,
                l_s=method.l_s, err_const=method.err_const,
            )
