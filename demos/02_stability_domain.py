"""Map the stability region of damped and undamped pairs.

Produces the real-axis scans and a complex-plane domain sample as CSV files
(plot them with any tool), and measures where stability actually ends --
including the small even-stage-count parity effect that the paper's
closed-form interval length glosses over (``stable_interval_length`` has it).
"""
import numpy as np

from tsrk import (
    build_undamped_pair,
    domain_sample,
    max_abs_root,
    real_axis_scan,
    solve_damping,
    stability_length,
    stable_interval_length,
)
from tsrk.stability import write_domain_csv, write_scan_csv

# Undamped pair: one characteristic root sits exactly on the unit circle for
# the whole interval [-2 s^2, 0], and at the interior points where T = +1 the
# domain pinches to a repeated root exactly on the circle.  A fine scan may
# therefore end the measured prefix at a pinch point instead of -2 s^2 --
# which is precisely why damping exists.
undamped = build_undamped_pair(5)
scan = real_axis_scan(undamped, -60.0, 100_000)
print(f"undamped s=5: measured stable prefix {scan.stable_length:.4f}"
      f" (interval 2 s^2 = 50, pinch points at 17.27 and 45.23)")
write_scan_csv("scan_undamped_s5.csv", scan)

# Damped s=5: interior roots pulled strictly inside the circle.
pair = solve_damping(5, 0.05)
scan = real_axis_scan(pair, -50.0, 100_000)
print(f"damped s=5:   measured stable prefix {scan.stable_length:.4f}"
      f" (closed form {stability_length(pair):.4f})")
write_scan_csv("scan_damped_s5.csv", scan)

l_s = stability_length(pair)
interior = max_abs_root(pair, np.linspace(-0.95 * l_s, -0.05 * l_s, 2000))
print(f"              worst root modulus on the interval interior: "
      f"{float(interior.max()):.6f} (the damping margin)")

# Even stage counts end a hair earlier than the closed form: the upper root
# bound is hit at shifted argument -omega (length 2 omega s^2 / beta).
# Resolved here by the scan.
sol2 = solve_damping(2, 0.05)
scan2 = real_axis_scan(sol2, -10.0, 100_000)
l_even = stable_interval_length(sol2)
print(f"damped s=2:   measured {scan2.stable_length:.6f}, even-parity end "
      f"{l_even:.6f}, closed form {stability_length(sol2):.6f}")

# Complex-plane mask around the negative real axis (CSV: mu_re, mu_im, inside).
dom = domain_sample(pair, re_min=-50.0, im_max=12.0, resolution=400, re_max=2.0)
write_domain_csv("domain_damped_s5.csv", dom)
inside = int(dom.mask.sum())
print(f"\ndomain sample 400x400 over [-50, 2] x [-12, 12]: "
      f"{inside} points inside")
print("wrote scan_undamped_s5.csv, scan_damped_s5.csv, domain_damped_s5.csv")
