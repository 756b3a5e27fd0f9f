"""Test a functional sample for a change in its mean curve, then locate it.

The pipeline: decompose the sample into principal components, project each
curve onto the leading d eigenfunctions, build normalized CUSUM bridges
from the score columns, and aggregate them into a single statistic whose
null distribution is the simulated limit law.  The same CUSUM matrix also
feeds normal-limit companion statistics and the change-point estimator.
"""

import numpy as np

from fdchange import (
    bridge_sup_moments,
    corollary_tests,
    cvm2d_test,
    estimate_changepoint,
    generate_bm_sample,
    inject_shift,
    sample_cusum,
    simulate_tld,
    variance_explained,
)

# ----------------------------------------------------------------------
# A sample with a known change: 200 Brownian curves on 501 grid points,
# mean shifted by 1.2*t*(1-t) for every curve after the 120th.

clean = generate_bm_sample(200, 500, seed=7)
shifted = inject_shift(clean, a=1.2, k_star=120)

law = simulate_tld(truncation=49, reps=20_000, seed=2, workers=2)

eig5, cusum5 = sample_cusum(shifted, 5)  # leading 5 components, CUSUM of their scores
out = cvm2d_test(eig5, cusum5, law)
print(f"shifted sample:  statistic {out.statistic:.4f}, p = {out.p_value:.4f}")
null_out = cvm2d_test(*sample_cusum(clean, 5), law)
print(f"clean sample:    statistic {null_out.statistic:.4f}, p = {null_out.p_value:.4f}")

# ----------------------------------------------------------------------
# How much variance do the projections keep?

eig, cusum = sample_cusum(shifted, 10)
cumulative = variance_explained(eig.eigenvalues)
print("\ncumulative variance explained by the leading components:")
print("  ", np.round(cumulative[:5], 3))

# ----------------------------------------------------------------------
# Normal-limit companions on the same CUSUM matrix; none of them draws
# anything.  The per-component sup variant (sup-bridge) is standardized by
# the closed-form mean and sd of a squared Brownian bridge's maximum over
# the N + 1 points of the CUSUM.

mu0, sigma0 = bridge_sup_moments(cusum.n)
print(f"\nmax of a squared bridge on {cusum.n + 1} points: mean {mu0:.4f}, sd {sigma0:.4f}")
for variant in ("cvm-sum", "sup-sum", "sup-bridge"):
    res = corollary_tests(cusum, variant)
    print(f"{variant:10s}: z = {res.statistic:7.3f}, p = {res.p_value:.2e}")

# ----------------------------------------------------------------------
# Where is the change?  The estimator returns the length of the
# pre-change prefix (true value here: 120).

theta = estimate_changepoint(cusum5)
print(f"\nestimated change after curve {theta} (true: 120)")
