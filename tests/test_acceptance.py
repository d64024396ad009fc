"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.

Criterion 3 checks the paper's closed-form interval length
(``stability_length``), which the paper's table prints for every s.
Criterion 7 checks the interval itself (``stable_interval_length``): the
closed form solves the zeta = -1 crossing, which exists only for odd s; for
even s the interval ends at shifted argument -omega (length
2*omega*s^2/beta, about 9e-4 shorter), where zeta = 1 is a root again.  A
10^5-point scan resolves that gap at s = 2 (about 10 grid cells), so the
scan is compared with the parity-aware length.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from tsrk.design import (
    DesignInput,
    build_damped_pair,
    build_method,
    design_method,
    error_constant,
    solve_damping,
    stability_length,
    stable_interval_length,
)
from tsrk.integrator import (
    BlowUpError,
    StepState,
    estimate_spectral_radius,
    integrate,
    select_stages,
    step,
)
from tsrk.problems import burgers, heat1d, heat1d_exact_state, hires, rober, vdpol, window_start_info
from tsrk.stability import real_axis_scan

EPS = 0.05

SWEEP_TABLE = {
    2: ("0.36594", "7.6531", "1.913275"),
    5: ("0.32949", "47.5779", "1.903115"),
    10: ("0.324278", "190.1654", "1.901654"),
    20: ("0.322975", "760.5155", "1.901289"),
    50: ("0.32261", "4752.9663", "1.901187"),
    100: ("0.322558", "19011.7189", "1.901172"),
    200: ("0.322545", "76046.7294", "1.901168"),
    500: ("0.322542", "475291.8031", "1.901167"),
    1000: ("0.322541", "1901167.0661", "1.901167"),
}

KNOWN_TRIPLE_S5 = (0.950022296412323, 1.0020498847775692, 1.053083013172171)

KNOWN_R1_S5 = (1.949130847897793, 1.0169295750648126, 0.17002420291058604,
           0.009987615599077876, 0.00023977479170518486,
           0.000002015889739363028)
KNOWN_R0_S5 = (-0.949130847897793, -0.9660604229626043, -0.16151920192429445,
           -0.009488012136354805, -0.00022778070612777503,
           -0.00000191505030634093)

KNOWN_METHOD_S5 = {
    "a_tilde": 19.991085619464535,
    "a": 0.950022296412323,
    "b": 0.04997770358767691,
    "m": (1.9918588786954916, 1.9838492426656018, 1.9760315849167438,
          1.9684604922450784),
    "m_tilde": (0.04203714921461939, 0.08373206889818684, 0.08339536663324355,
                0.08306673458794599, 0.08274846743558949),
    "c": (18.991085619464535, 19.033122768679153, 19.158549757260907,
          19.365346371620134, 19.65025313347653),
}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _ulp_of_printed(text: str) -> float:
    decimals = len(text.split(".")[1])
    return 10.0 ** (-decimals)


@pytest.fixture(scope="module")
def heat_sweep():
    """heat1d(50) auto-stage convergence sweep: h0 = 1e-3, 3 halvings."""
    prob = heat1d(50)
    rho = estimate_spectral_radius(prob)
    errors = []
    for k in range(4):
        h = 1e-3 / 2**k
        s = select_stages(rho, h, EPS)
        res = integrate(design_method(s, EPS), prob, h)
        errors.append(res.endpoint_error)
    return errors, prob.reference().estimate


@pytest.fixture(scope="module")
def rober_sweep():
    """rober auto-stage convergence sweep: h0 = 10, 3 halvings."""
    prob = rober()
    rho = estimate_spectral_radius(prob)
    errors = []
    for k in range(4):
        h = 10.0 / 2**k
        s = select_stages(rho, h, EPS)
        res = integrate(design_method(s, EPS), prob, h)
        errors.append(res.endpoint_error)
    return errors, prob.reference().estimate


@pytest.fixture(scope="module")
def burgers_experiment():
    """Burgers h = 0.078125: minimal stable stage count and its error."""
    start = time.perf_counter()
    prob = burgers()
    s_min, err_min = None, None
    for s in range(10, 21):
        try:
            res = integrate(design_method(s, EPS), prob, 0.078125)
        except BlowUpError:
            continue
        s_min, err_min = s, res.endpoint_error
        break
    elapsed = time.perf_counter() - start
    return s_min, err_min, prob.reference().estimate, elapsed


def test_criterion_01_design_system_solution():
    start = time.perf_counter()
    sol = solve_damping(DesignInput(5, EPS))
    elapsed = time.perf_counter() - start
    worst = max(abs(sol.alpha - KNOWN_TRIPLE_S5[0]),
                abs(sol.omega - KNOWN_TRIPLE_S5[1]),
                abs(sol.beta - KNOWN_TRIPLE_S5[2]))
    _report(1, worst <= 1e-10 and elapsed < 1.0,
            f"(alpha, omega, beta) off by {worst:.2e} in {elapsed * 1e3:.1f} ms")


def test_criterion_02_polynomial_coefficients():
    pair = build_damped_pair(solve_damping(DesignInput(5, EPS)))
    r1, r0 = pair.monomial_coefficients()
    rel = max(float(np.max(np.abs((r1 - np.array(KNOWN_R1_S5)) / KNOWN_R1_S5))),
              float(np.max(np.abs((r0 - np.array(KNOWN_R0_S5)) / KNOWN_R0_S5))))
    _report(2, rel <= 1e-9, f"all 12 coefficients, worst relative {rel:.2e}")


def test_criterion_03_table_reproduction():
    start = time.perf_counter()
    worst_l, worst_c, ratio_1000 = 0.0, 0.0, None
    ok = True
    for s, (c_txt, l_txt, ratio_txt) in SWEEP_TABLE.items():
        sol = solve_damping(DesignInput(s, EPS))
        l_s = stability_length(sol)
        c_s = error_constant(build_damped_pair(sol))
        rel_l = abs(l_s - float(l_txt)) / float(l_txt)
        err_c = abs(c_s - float(c_txt))
        worst_l = max(worst_l, rel_l)
        worst_c = max(worst_c, err_c / _ulp_of_printed(c_txt))
        ok &= rel_l <= 1e-4 and err_c <= _ulp_of_printed(c_txt)
        if s == 1000:
            ratio_1000 = l_s / s**2
    elapsed = time.perf_counter() - start
    ok &= abs(ratio_1000 - 1.901167) <= 1e-6 and elapsed <= 10.0
    _report(3, ok,
            f"9 rows: worst l_s rel {worst_l:.2e}, worst C_s {worst_c:.2f} ulp, "
            f"l/s^2(1000) = {ratio_1000:.6f}, {elapsed:.1f} s")


def test_criterion_04_method_parameters():
    method = build_method(solve_damping(DesignInput(5, EPS)))
    worst = max(
        abs(method.a_tilde - KNOWN_METHOD_S5["a_tilde"]),
        abs(method.a - KNOWN_METHOD_S5["a"]),
        abs(method.b - KNOWN_METHOD_S5["b"]),
        float(np.max(np.abs(method.m - np.array(KNOWN_METHOD_S5["m"])))),
        float(np.max(np.abs(method.m_tilde - np.array(KNOWN_METHOD_S5["m_tilde"])))),
        float(np.max(np.abs(method.c - np.array(KNOWN_METHOD_S5["c"])))),
    )
    _report(4, worst <= 1e-9, f"all 15 parameters, worst absolute {worst:.2e}")


def test_criterion_05_form_equivalence():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for s in (2, 5, 10, 50):
        pair = build_damped_pair(solve_damping(DesignInput(s, EPS)))
        method = design_method(s, EPS)
        mu = -method.l_s * rng.uniform(0.0, 1.0, size=50)
        r1m, r0m = method.char_polys(mu)
        r1p, r0p = pair.char_polys(mu)
        scale = np.maximum(np.maximum(np.abs(r1p), np.abs(r0p)), 1.0)
        worst = max(worst,
                    float(np.max(np.abs(r1m - r1p) / scale)),
                    float(np.max(np.abs(r0m - r0p) / scale)))
    _report(5, worst <= 1e-9,
            f"50 points x s in (2, 5, 10, 50), worst relative {worst:.2e}")


def test_criterion_06_linear_recurrence_oracle():
    rng = np.random.default_rng(1729)
    method = design_method(5, EPS)
    r1_of = lambda mu: float(method.char_polys(mu)[0])
    r0_of = lambda mu: float(method.char_polys(mu)[1])
    worst = 0.0
    for _ in range(20):
        mu = -method.l_s * rng.uniform(0.0, 1.0)
        h = rng.uniform(0.05, 2.0)
        lam = mu / h
        f = lambda t, y: lam * y
        y_prev, y_curr = np.array([1.0]), np.array([math.exp(mu)])
        r1, r0 = r1_of(mu), r0_of(mu)
        z_prev, z_curr = 1.0, math.exp(mu)
        for n in range(100):
            y_prev, y_curr = y_curr, step(
                method, f, StepState(n * h, y_prev, y_curr, h))
            z_prev, z_curr = z_curr, r1 * z_curr + r0 * z_prev
            worst = max(worst, abs(y_curr[0] - z_curr) / max(abs(z_curr), 1e-300))
    _report(6, worst <= 1e-12,
            f"20 draws x 100 steps, worst relative {worst:.2e}")


def test_criterion_07_stability_boundary():
    details = []
    ok = True
    for s in (2, 5, 10, 20):
        sol = solve_damping(DesignInput(s, EPS))
        l_s = stability_length(sol)
        l_true = stable_interval_length(sol)
        mu_min = -(l_s + 2.0)
        scan = real_axis_scan(build_damped_pair(sol), mu_min, 100_000)
        cell = -mu_min / 99_999
        gap = abs(scan.stable_length - l_true)
        scan_ok = gap <= cell
        ok &= scan_ok
        details.append(f"s={s}: {gap / cell:.1f} cells{'' if scan_ok else ' (!)'}")

        method = design_method(s, EPS)
        grew = False
        f_bad = lambda t, y: -(l_s + 2.0) * y
        y_prev, y_curr = np.array([1.0]), np.array([1.0])
        try:
            for n in range(200):
                y_prev, y_curr = y_curr, step(
                    method, f_bad, StepState(float(n), y_prev, y_curr, 1.0))
                if abs(y_curr[0]) > 1e10:
                    grew = True
                    break
        except BlowUpError:
            grew = True
        f_ok = lambda t, y: -(l_s - 0.5) * y
        y_prev, y_curr = np.array([1.0]), np.array([1.0])
        bounded = True
        for n in range(200):
            y_prev, y_curr = y_curr, step(
                method, f_ok, StepState(float(n), y_prev, y_curr, 1.0))
            bounded &= abs(y_curr[0]) <= 1.0 + 1e-9
        ok &= grew and bounded
        details.append(f"s={s}: grow={grew} bounded={bounded}")
    _report(7, ok, "; ".join(details)
            + " [scan vs parity-aware interval length]")


def test_criterion_08_order_two_convergence(heat_sweep, rober_sweep):
    heat_errors, _ = heat_sweep
    rober_errors, _ = rober_sweep
    heat_ratios = [heat_errors[i] / heat_errors[i + 1] for i in range(3)]
    rober_ratios = [rober_errors[i] / rober_errors[i + 1] for i in range(3)]
    ok = all(3.2 <= r <= 4.8 for r in heat_ratios + rober_ratios)
    _report(8, ok,
            "heat1d ratios " + "/".join(f"{r:.2f}" for r in heat_ratios)
            + ", rober ratios " + "/".join(f"{r:.2f}" for r in rober_ratios))


def test_criterion_09_stage_doubling():
    n, t_end = 50, 0.5
    base = heat1d(n, t_out=t_end)
    rho = base.rho_bound(0.0, base.y0)
    x = np.linspace(1 / (n + 1), 1 - 1 / (n + 1), n)
    u0 = np.sin(np.pi * x) + 0.01 * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    prob = dataclasses.replace(base, y0=u0, reference=None)
    exact = heat1d_exact_state(n, t_end, u0)

    def is_stable(s, n_steps):
        try:
            res = integrate(design_method(s, EPS), prob, t_end / n_steps)
        except BlowUpError:
            return False
        return float(np.max(np.abs(res.y_end - exact))) < 1.0

    def minimal_stable_steps(s):
        n_steps = max(2, math.ceil(t_end * rho / design_method(s, EPS).l_s) - 4)
        while not is_stable(s, n_steps):
            n_steps += 1
            assert n_steps < 10_000
        return n_steps

    ratios = []
    for s in (5, 6):
        ratios.append(minimal_stable_steps(s) / minimal_stable_steps(2 * s))
    ok = all(3.6 <= r <= 4.4 for r in ratios)
    _report(9, ok, "max stable h ratios (s -> 2s): "
            + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_10_interval_ratio_limit():
    sol = solve_damping(DesignInput(1000, EPS))
    ratio = stability_length(sol) / 1000**2
    _report(10, abs(ratio - 1.901167) <= 1e-6,
            f"l_s/s^2 at s=1000 is {ratio:.6f} (literature comparison point)")


def test_criterion_11_burgers_data_point(burgers_experiment):
    s_min, err_min, _, elapsed = burgers_experiment
    ok = (s_min is not None and 12 <= s_min <= 20
          and 0.002 <= err_min <= 0.04 and elapsed <= 60.0)
    _report(11, ok,
            f"minimal stable s = {s_min}, endpoint error = {err_min:.4f}, "
            f"{elapsed:.1f} s")


def test_criterion_12_reference_certification(heat_sweep, rober_sweep,
                                              burgers_experiment):
    details = []
    ok = True
    for name in ("vdpol", "rober", "hires"):
        info = window_start_info(name)
        ok &= info.diff <= 1e-8
        details.append(f"{name} start {info.diff:.1e}")
    for label, (errors, estimate) in (("heat1d", heat_sweep),
                                      ("rober", rober_sweep)):
        ok &= estimate <= min(errors) / 100.0
        details.append(f"{label} ref {estimate:.1e} vs min err {min(errors):.1e}")
    _, err_min, burgers_estimate, _ = burgers_experiment
    ok &= burgers_estimate <= err_min / 100.0
    details.append(f"burgers ref {burgers_estimate:.1e} vs err {err_min:.1e}")
    for prob in (vdpol(), hires()):
        ref = prob.reference()
        ok &= ref.estimate <= 1e-8
        details.append(f"{prob.name} endpoint ref {ref.estimate:.1e}")
    _report(12, ok, "; ".join(details))
