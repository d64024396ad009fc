"""Design a stabilized two-step method from scratch.

Walks through the full design pipeline for the 5-stage method at the default
damping 0.05: solve the three-equation damping system, inspect the stability
polynomial pair, emit the runnable recurrence coefficients, and reproduce the
stability/error table across stage counts.
"""
import numpy as np

from tsrk import (
    build_method,
    error_constant,
    solve_damping,
    stability_length,
)

# The damping system couples alpha (root scaling), omega (argument shift)
# and beta (argument stretch) through preconsistency and the two
# second-order conditions.  Newton from the standard guess nails it in a
# couple of iterations.
sol = solve_damping(5, 0.05)
print("damping solution for s=5, eps=0.05")
print(f"  alpha = {sol.alpha!r}")
print(f"  omega = {sol.omega!r}")
print(f"  beta  = {sol.beta!r}")
print(f"  residual {sol.residual:.2e} after {sol.iterations} Newton iterations")

r1, r0 = sol.taylor_coefficients(sol.s + 1)
print("\nstability polynomial pair (mu-monomial coefficients)")
with np.printoptions(precision=12):
    print("  R1:", r1)
    print("  R0:", r0)
print(f"  preconsistency R1(0) + R0(0) - 1 = {r1[0] + r0[0] - 1:.2e}")

method = build_method(sol)
print("\nrecurrence-form method")
print(f"  a = {method.a!r}")
print(f"  a~ = {method.a_tilde!r}")
print(f"  b = {method.b!r}")
print(f"  m = {method.m}")
print(f"  m~ = {method.m_tilde}")
print(f"  c = {method.c}")
print(f"  stability interval length l_s = {method.l_s:.4f}")
print(f"  error constant C_s = {method.err_const:.6f}")

method.save("method_s5.json")
print("\nwrote method_s5.json")

print("\nstage count sweep (eps = 0.05)")
print(f"{'s':>5} {'C_s':>10} {'l_s':>14} {'l_s/s^2':>10}")
for s in (2, 5, 10, 20, 50, 100, 200, 500, 1000):
    sol = solve_damping(s, 0.05)
    l_s = stability_length(sol)
    c_s = error_constant(sol)
    print(f"{s:>5} {c_s:>10.6f} {l_s:>14.4f} {l_s / s**2:>10.6f}")
