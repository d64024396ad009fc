"""Constant-step runs over the stiff benchmark windows.

For each problem the stage count is chosen automatically from the spectral
radius, the starting value comes from the built-in implicit reference
solver, and the endpoint error is measured against a certified reference:
for the stiff windows an order-5 Radau IIA run, whose gap to a run with half
as many steps bounds its error, and for heat1d the exact solution of the
discrete system.  Halving the step should cut the error by about 4: second
order.

First run computes and caches the window-start states and references
(about a second for all three stiff windows; see TSRK_CACHE_DIR in the
README).
"""
from tsrk import (
    design_method,
    estimate_spectral_radius,
    integrate,
    select_stages,
)
from tsrk.problems import heat1d, hires, rober, vdpol

SWEEPS = [
    (heat1d(50), 1e-3),
    (rober(), 10.0),
    (hires(), 0.625),
    (vdpol(), 0.0025),
]

for problem, h0 in SWEEPS:
    rho = estimate_spectral_radius(problem)
    print(f"\n{problem.name}: window [{problem.t0:g}, {problem.t_out:g}], "
          f"spectral radius ~ {rho:.3g}")
    print(f"  {'h':>12} {'s':>5} {'steps':>7} {'fevals':>8} {'error':>12} {'ratio':>7}")
    prev_err = None
    for k in range(4):
        h = h0 / 2**k
        s = select_stages(rho, h)
        res = integrate(design_method(s, 0.05), problem, h)
        ratio = "" if prev_err is None else f"{prev_err / res.endpoint_error:7.2f}"
        print(f"  {h:>12.6f} {s:>5} {res.steps_taken:>7} "
              f"{res.stage_evals + res.starter_evals:>8} "
              f"{res.endpoint_error:>12.4e} {ratio}")
        prev_err = res.endpoint_error
