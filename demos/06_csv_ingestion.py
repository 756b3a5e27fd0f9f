"""Read curves from CSV files: dense rows, long layout, smoothing, export.

Two layouts are accepted.  "rows" is a dense matrix - a header of
observation points followed by one curve per line.  "long" is tidy
records (curve_id, t, value), convenient for daily series.  Points
inside [0, 1] are used as given; others are mapped onto [0, 1] by their
pooled range, so days 1..365 land on (k-1)/364.  Discretely observed
curves are smoothed onto an odd Fourier basis before analysis;
basis_size=None ingests raw values.
"""

import csv
import os
import tempfile

import numpy as np

from fdchange import IngestionConfig, ingest, write_sample_csv

with tempfile.TemporaryDirectory(prefix="fdchange-demo-") as workdir:
    # ----------------------------------------------------------------------
    # A rows-layout file: noisy sinusoids observed on 101 points.

    rows_path = os.path.join(workdir, "rows.csv")
    t = np.linspace(0.0, 1.0, 101)
    rng = np.random.default_rng(0)
    with open(rows_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{v:.6f}" for v in t])
        for i in range(8):
            curve = np.sin(2 * np.pi * t) + 0.3 * i * t + rng.normal(0.0, 0.05, t.size)
            writer.writerow([f"{v:.6f}" for v in curve])

    sample = ingest(rows_path, IngestionConfig(basis_size=11, grid_size=101))
    print(f"rows layout: {sample.values.shape[0]} curves on {sample.grid.points.size} points")
    print(f"  smoothing onto 11 Fourier functions; first curve starts {sample.values[0, :3].round(3)}")

    # ----------------------------------------------------------------------
    # A long-layout file keyed by day-of-year (1..365), with a missing day.
    # The default policy fits each curve from whatever observations it has.

    long_path = os.path.join(workdir, "long.csv")
    days = np.arange(1, 366)
    with open(long_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve_id", "t", "value"])
        for year in ("y1990", "y1991", "y1992"):
            base = rng.normal(0.0, 1.0)
            for day in days:
                if year == "y1991" and day == 33:
                    continue  # a hole in the record
                x = (day - 1) / 364.0
                writer.writerow([year, day, f"{base + np.cos(2 * np.pi * x):.5f}"])

    daily = ingest(long_path, IngestionConfig(layout="long", basis_size=49))
    print(f"\nlong layout: {daily.values.shape[0]} yearly curves, grid of {daily.grid.points.size}")
    print("  days 1..365 mapped by their range onto [0, 1]: day k at t = (k-1)/364")

    # ----------------------------------------------------------------------
    # Raw ingestion (no smoothing) and a lossless round-trip.

    raw = ingest(rows_path, IngestionConfig(basis_size=None))
    out_path = os.path.join(workdir, "export.csv")
    write_sample_csv(raw, out_path)
    again = ingest(out_path, IngestionConfig(basis_size=None))
    print(f"\nraw round-trip bitwise equal: {np.array_equal(raw.values, again.values)}")
    print(f"files written under {workdir}")
