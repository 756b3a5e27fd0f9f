"""Find several change-points by recursive binary segmentation.

Each segment is tested on its own: a fresh principal-component
decomposition, the change-point test at every requested d, a split at the
estimated change-point when any d rejects, then recursion into both
halves.  The result is a tree whose rows mirror how such analyses are
usually tabulated: one row per examined segment with its per-d p-values.
"""

import numpy as np

from fdchange import FunctionalSample, binary_segmentation, generate_bm_sample, simulate_tld

# ----------------------------------------------------------------------
# 300 Brownian curves with an upward shift after curve 100 and a matching
# downward shift after curve 200 (so the mean returns to zero).

sample = generate_bm_sample(300, 400, seed=5)
t = sample.grid.points
values = sample.values.copy()
values[100:200] += 2.5 * t * (1.0 - t)
sample = FunctionalSample(sample.grid, values)

law = simulate_tld(truncation=49, reps=20_000, seed=1)

tree = binary_segmentation(sample, d_list=(3, 4, 5), alpha=0.01, law=law)

print("segments examined (change after = estimated pre-change length):")
header = None
for row in tree.rows():
    if header is None:
        header = list(row)
        print("  " + "  ".join(f"{h:>12s}" for h in header))
    cells = []
    for h in header:
        v = row[h]
        if isinstance(v, float):
            cells.append(f"{v:12.4f}")
        else:
            cells.append(f"{str(v) if v is not None else '-':>12s}")
    print("  " + "  ".join(cells))

print(f"\nestimated change-points: {tree.change_points()} (true: [100, 200])")
