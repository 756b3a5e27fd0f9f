"""A desk-scale size and power study for the change-point test.

The harness replays one protocol: n Brownian curves on a fine grid, an
optional mean shift a*t*(1-t) after curve k_star, the test run at every
d in d_list, rejection counted at every alpha in alpha_list.  Replicates
are deterministic given the scenario seed and run in one process; only the
limit-law draw is spread over worker processes.  Full-scale settings (1000
replicates, d up to 15) finish in minutes; this demo uses 250 replicates to
stay quick.
"""

import time

from fdchange import SimScenario, run_size_power, simulate_tld

law = simulate_tld(truncation=49, reps=20_000, seed=1, workers=2)

start = time.perf_counter()

# ----------------------------------------------------------------------
# Size: no shift.  Rates should track alpha for every d; the harness
# attaches a 90% Monte Carlo band to each rate.

null_scenario = SimScenario(
    n=100, grid_size=500, d_list=(3, 5, 10), alpha_list=(0.05, 0.10), reps=250, seed=0
)
report = run_size_power(null_scenario, test="cvm2d", law=law)

print("null rejection rates (250 replicates):")
print("   d   alpha   rate   90% band")
for row in report.rows:
    print(
        f"  {row['d']:2d}   {row['alpha']:.2f}   {row['p_hat']:.3f}"
        f"   [{row['band_lo']:.3f}, {row['band_hi']:.3f}]"
    )

# ----------------------------------------------------------------------
# Power: shift of size a after the midpoint, growing a.

print("\nrejection rates at alpha = 0.05 under a shift after curve 50:")
print("    a    d=3    d=5    d=10")
for a in (0.5, 1.0, 1.5):
    scenario = SimScenario(
        n=100, grid_size=500, a=a, k_star=50,
        d_list=(3, 5, 10), alpha_list=(0.05,), reps=250, seed=0,
    )
    rep = run_size_power(scenario, test="cvm2d", law=law)
    rates = "  ".join(f"{rep.p_hat(d, 0.05):.3f}" for d in (3, 5, 10))
    print(f"  {a:.1f}  {rates}")

print(f"\ntotal study time: {time.perf_counter() - start:.1f} s")
