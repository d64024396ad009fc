"""How many stages does Burgers need at a fixed step size?

Error constants barely depend on the stage count, so for a given h the only
question is the minimal s that is stable; every stable method then lands at
nearly the same error.  At h = 2.5/32 = 0.078125 on the 500-point grid the
answer is 15 stages.

First run computes the trapezoidal reference on the 500-point grid
(under a second with its banded Jacobian, then cached).  The 11 attempts
share one starter: y_1 does not depend on s, so ``integrate`` computes it
at the first attempt and reuses it in memory for the other ten.
"""
from tsrk import BlowUpError, design_method, estimate_spectral_radius, integrate, select_stages
from tsrk.problems import burgers

H = 0.078125
problem = burgers()
rho = estimate_spectral_radius(problem)  # analytic bound: diffusion + advection
print(f"burgers n=500, h = {H}: h * rho = {H * rho:.1f}")
print(f"auto selection picks s = {select_stages(rho, H)}")
print(f"\n  {'s':>4} {'l_s':>10} {'h*rho <= l_s':>13} outcome")
for s in range(10, 21):
    method = design_method(s, 0.05)
    predicted = "yes" if H * rho <= method.l_s else "no"
    try:
        res = integrate(method, problem, H)
        print(f"  {s:>4} {method.l_s:>10.1f} {predicted:>13} "
              f"error {res.endpoint_error:.4e}")
    except BlowUpError as exc:
        print(f"  {s:>4} {method.l_s:>10.1f} {predicted:>13} unstable "
              f"(stage {exc.stage}, t = {exc.t:g})")
