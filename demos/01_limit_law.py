"""Simulate the limiting distribution of the test statistic and tabulate
critical values.

The statistic's limit is a double series: independent squared normals
weighted by the eigenvalues of the Brownian covariance min(s, t) in one
direction and of the squared-bridge kernel 2*(min(s,t) - s*t)^2 in the
other.  Both spectra are known objects - the first in closed form, the
second via Nystrom discretization - so the law can be simulated directly
from its series representation.  Criterion 2 of tests/test_acceptance.py
cross-checks it against the same law simulated with no spectral shortcut at
all, by integrating a Gaussian sheet.
"""

import numpy as np

from fdchange import (
    Grid,
    bridge_sq_kernel_eigenvalues,
    simulate_tld,
    wiener_eigenvalues,
)

# ----------------------------------------------------------------------
# The two ingredient spectra.

lam = wiener_eigenvalues(5)
print("leading eigenvalues of min(s,t):      ", np.round(lam, 5))
print("  (closed form (pi*(k - 1/2))**-2; the full series sums to 1/2)")

# The law uses the stored eigenvalues of the 1000-point Nystrom grid.
nu = bridge_sq_kernel_eigenvalues(5)
print("leading eigenvalues of 2*(min-st)^2:  ", np.round(nu, 5))

# Any other grid, or the whole spectrum, is the eigenvalues of the symmetric
# matrix W^(1/2) K W^(1/2), with K the kernel on the grid and W its
# trapezoid weights.
grid = Grid.uniform(400)
t = grid.points
kernel = 2.0 * (np.minimum.outer(t, t) - np.outer(t, t)) ** 2
w_half = np.sqrt(grid.weights)
trace = np.linalg.eigvalsh(w_half[:, None] * kernel * w_half[None, :]).sum()
print(f"  (full spectrum on 400 points sums to {trace:.6f}; exact trace 1/15 = {1 / 15:.6f})")

# ----------------------------------------------------------------------
# Simulate the law and read off upper quantiles.  truncation=49 keeps the
# first 49 terms of each series; reps trades accuracy for time.

law = simulate_tld(truncation=49, reps=20_000, seed=1, workers=2)
print("\ncritical values from 20000 replicates (truncation 49):")
for alpha in (0.01, 0.05, 0.10):
    print(f"  alpha = {alpha:.2f}:  {law.critical_value(alpha):.4f}")

stat = 0.0726
print(f"\na statistic of {stat} would get p = {law.p_value(stat):.4f}")
