"""The linear test equation welds the design to the integrator.

On y' = lambda*y the stage recurrence collapses exactly to the two-term
recurrence y_{n+1} = R1(h lambda) y_n + R0(h lambda) y_{n-1}, so the
integrator, the coefficient generator and the stability analysis must all
agree to machine precision.  The second half pushes h lambda past the
interval tip and watches the blow-up threshold do its job.
"""
import math

import numpy as np

from tsrk import BlowUpError, design_method, step

method = design_method(5, 0.05)
rng = np.random.default_rng(0)

print("integrator vs characteristic recurrence on y' = lambda y")
worst = 0.0
for trial in range(5):
    mu = -method.l_s * rng.uniform()
    h = rng.uniform(0.1, 1.0)
    lam = mu / h
    r1, r0 = (float(v) for v in method.char_polys(mu))
    y_prev, y_curr = np.array([1.0]), np.array([math.exp(mu)])
    z_prev, z_curr = 1.0, math.exp(mu)
    for n in range(100):
        y_prev, y_curr = y_curr, step(
            method, lambda t, y: lam * y, n * h, y_prev, y_curr, h)
        z_prev, z_curr = z_curr, r1 * z_curr + r0 * z_prev
        worst = max(worst, abs(y_curr[0] - z_curr) / max(abs(z_curr), 1e-300))
    print(f"  mu = {mu:9.4f}: 100 steps, relative deviation <= {worst:.2e}")

print("\nstability threshold around the interval tip (s = 5)")
for offset, label in ((-0.5, "just inside"), (2.0, "just outside")):
    lam = -(method.l_s + offset)
    y_prev, y_curr = np.array([1.0]), np.array([1.0])
    outcome = "bounded"
    try:
        for n in range(200):
            y_prev, y_curr = y_curr, step(
                method, lambda t, y: lam * y, float(n), y_prev, y_curr, 1.0)
            if abs(y_curr[0]) > 1e10:
                outcome = f"grew past 1e10 at step {n}"
                break
    except BlowUpError as exc:
        outcome = f"blow-up guard tripped ({exc})"
    print(f"  h*lambda = -(l_s {'+' if offset > 0 else '-'} {abs(offset)}): {outcome}")
