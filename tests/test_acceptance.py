"""Acceptance gate: end-to-end reproduction targets with pinned tolerances.

Every test freezes its seeds, so each number below is a deterministic
property of the codebase: a rerun either passes identically or fails
identically.  Each criterion prints a one-line summary (visible under
``pytest -s``), so this module doubles as a reproduction report.

Known red: criterion 9 (change-point localization rate) measures 0.878
against a 0.90 requirement and is deliberately left failing; see its
docstring for the analysis.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from _references import kernel_spectrum, simulate_gamma_functional
from conftest import LAW_SEED, TIMINGS, set_cores
from fdchange._rng import replicate_rng
from fdchange.changepoint import (
    _braces,
    _cvm_stats_by_prefix,
    cusum_matrix,
    estimate_changepoint,
)
from fdchange.cli import main
from fdchange.curves import FunctionalSample, Grid
from fdchange.fpca import _keep_count, compute_scores, sample_eigensystem
from fdchange.limitdist import NYSTROM_POINTS, simulate_tld, wiener_eigenvalues
from fdchange.simulation import (
    SimScenario,
    _bm_values,
    confidence_band,
    generate_bm_sample,
    run_size_power,
)

#: Pinned critical values at 100000 replicates, truncation 49: target +- tol.
CV_TARGETS = {0.01: (0.1093, 0.006), 0.05: (0.0726, 0.003), 0.10: (0.0578, 0.002)}

#: Pinned 90% bands for the N=100 null rejection rate at alpha = 0.05.
SIZE_BANDS_N100 = {3: (0.0440, 0.0680), 5: (0.0467, 0.0713), 10: (0.0387, 0.0613)}

#: Pinned 90% band for the N=200, d=5 null rejection rate at alpha = 0.10.
SIZE_BAND_N200_A10 = (0.0622, 0.0898)

#: Exact mean of the limiting integrated-square distribution.
LIMIT_MEAN = 1.0 / 30.0


@pytest.fixture(scope="module")
def size_sweep(law100k):
    """Null rejection rates: N=100 over d = 3..15, and N=200 at d = 5."""
    start = time.perf_counter()
    at_100 = run_size_power(
        SimScenario(
            n=100,
            grid_size=1000,
            d_list=tuple(range(3, 16)),
            alpha_list=(0.05,),
            reps=1000,
            seed=0,
        ),
        test="cvm2d",
        law=law100k,
    )
    at_200 = run_size_power(
        SimScenario(
            n=200,
            grid_size=1000,
            d_list=(5,),
            alpha_list=(0.05, 0.10),
            reps=1000,
            seed=0,
        ),
        test="cvm2d",
        law=law100k,
    )
    return at_100, at_200, time.perf_counter() - start


def test_criterion_01_critical_values(law100k, capsys):
    """``critical-values --K 49 --reps 100000`` reproduces the pinned quantiles.

    Tolerances +-0.006 / +-0.003 / +-0.002 at alpha = 0.01 / 0.05 / 0.10;
    runtime budget 60 s for the 100000-replicate simulation (checked for both
    the CLI invocation and the library-route session fixture).  The CLI run
    uses the same seed as the fixture, so the two routes must agree exactly.
    """
    start = time.perf_counter()
    code = main(
        [
            "critical-values",
            "--K",
            "49",
            "--reps",
            "100000",
            "--seed",
            str(LAW_SEED),
        ]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    got = {float(row["alpha"]): float(row["critical_value"]) for row in rows}
    assert sorted(got) == sorted(CV_TARGETS)
    for alpha, (target, tol) in CV_TARGETS.items():
        assert abs(got[alpha] - target) <= tol, (alpha, got[alpha], target)
        assert got[alpha] == law100k.critical_value(alpha)
    assert elapsed < 60.0
    assert TIMINGS["law100k"] < 60.0
    print(
        "criterion 1: critical values "
        + ", ".join(f"{a:g}->{got[a]:.5f}" for a in sorted(got))
        + f" (cli {elapsed:.1f}s, library {TIMINGS['law100k']:.1f}s)"
    )


def test_criterion_02_sampler_cross_check():
    """The spectral sampler and the sheet sampler draw the same distribution.

    At the everyday truncation of 49 terms the spectral route leaves about
    1.6% of the limit mean in its discarded tail, which 20000-replicate
    samples resolve easily, so the cross-check runs both routes at high
    resolution (150 terms of the stored 1000-point Nystrom table vs a
    250 x 250 sheet grid) to push discretization bias well below Monte Carlo
    noise.  Gates: two-sample Kolmogorov-Smirnov distance under 0.01, and
    each sample mean within 3 standard errors of the exact limit mean 1/30.
    At ``LAW_SEED`` the KS distance is about 0.0099 and the series mean is
    about 0.13 standard errors off, so the KS gate has a thin margin.
    """
    tld = simulate_tld(150, reps=20_000, seed=LAW_SEED)
    sheet = simulate_gamma_functional(grid_u=250, grid_x=250, reps=20_000, seed=LAW_SEED)
    ks = float(ks_2samp(tld.samples, sheet).statistic)
    assert ks < 0.01
    offsets = []
    for draws in (tld.samples, sheet):
        se = float(draws.std(ddof=1)) / np.sqrt(draws.size)
        offsets.append(abs(float(draws.mean()) - LIMIT_MEAN) / se)
        assert offsets[-1] <= 3.0
    print(
        f"criterion 2: sampler cross-check KS {ks:.5f} < 0.01; "
        f"mean offsets {offsets[0]:.2f} and {offsets[1]:.2f} standard errors"
    )


def test_criterion_03_trace_identities():
    """Discretized spectra reproduce the exact kernel traces.

    The Nystrom spectrum of the kernel 2(min(s,t) - st)^2 on 1000 points,
    its whole spectrum above the default floor, must sum to the kernel trace
    1/15 within 1e-4, and the spectrum of the kernel min(s,t) must recover
    (pi (k - 1/2))^{-2} for k <= 5 within 1e-3.
    """
    grid = Grid.uniform(NYSTROM_POINTS)
    t = grid.points
    vals = kernel_spectrum(grid, 2.0 * (np.minimum.outer(t, t) - np.outer(t, t)) ** 2)
    trace = float(vals[: _keep_count(vals, NYSTROM_POINTS)].sum())
    assert abs(trace - 1.0 / 15.0) <= 1e-4
    leading = kernel_spectrum(grid, np.minimum.outer(t, t))[:5]
    err = float(np.max(np.abs(leading - wiener_eigenvalues(5))))
    assert err <= 1e-3
    print(
        f"criterion 3: bridge-square trace off 1/15 by {abs(trace - 1.0 / 15.0):.2e}; "
        f"min-kernel eigenvalues off by {err:.2e}"
    )


def test_criterion_04_null_size(size_sweep):
    """Null rejection rates land inside the pinned 90% bands.

    N=100, alpha = 0.05 at d = 3, 5, 10, and N=200, d=5 at alpha = 0.10;
    1000 replicates each, seed 0.  Runtime budget: 10 minutes for the whole
    sweep (both sample sizes, all thirteen d values).
    """
    at_100, at_200, elapsed = size_sweep
    rates = {d: at_100.p_hat(d, 0.05) for d in SIZE_BANDS_N100}
    for d, (lo, hi) in SIZE_BANDS_N100.items():
        assert lo <= rates[d] <= hi, (d, rates[d], (lo, hi))
    rate_200 = at_200.p_hat(5, 0.10)
    lo, hi = SIZE_BAND_N200_A10
    assert lo <= rate_200 <= hi, (rate_200, SIZE_BAND_N200_A10)
    assert elapsed < 600.0
    print(
        "criterion 4: size N=100 "
        + ", ".join(f"d={d}:{rates[d]:.4f}" for d in sorted(rates))
        + f"; N=200 d=5 @10%: {rate_200:.4f} (sweep {elapsed:.0f}s)"
    )


def test_criterion_05_power(law100k):
    """Power against mean shifts a*t*(1-t) injected mid-sample.

    Strong case (N=200, a=1.5, shift after index 100, d=5) must reject in at
    least 97% of 1000 replicates; the moderate case (N=100, a=1.0, shift
    after 50) must land in [0.42, 0.58].
    """
    strong = run_size_power(
        SimScenario(
            n=200,
            grid_size=1000,
            a=1.5,
            k_star=100,
            d_list=(5,),
            alpha_list=(0.05,),
            reps=1000,
            seed=0,
        ),
        test="cvm2d",
        law=law100k,
    ).p_hat(5, 0.05)
    moderate = run_size_power(
        SimScenario(
            n=100,
            grid_size=1000,
            a=1.0,
            k_star=50,
            d_list=(5,),
            alpha_list=(0.05,),
            reps=1000,
            seed=0,
        ),
        test="cvm2d",
        law=law100k,
    ).p_hat(5, 0.05)
    assert strong >= 0.97
    assert 0.42 <= moderate <= 0.58
    print(
        f"criterion 5: power strong {strong:.4f} >= 0.97; "
        f"moderate {moderate:.4f} in [0.42, 0.58]"
    )


def test_criterion_06_rejection_rate_stable_in_d(size_sweep):
    """The null rejection rate does not drift as d grows from 3 to 15.

    Gate: the 90% bands of every pair of d values in the N=100 sweep overlap
    (closed intervals).  At the pinned seed the tightest pair is d=9 vs d=15,
    which still overlap by about 0.001.
    """
    at_100, _, _ = size_sweep
    bands = {
        d: confidence_band(at_100.p_hat(d, 0.05), 1000) for d in range(3, 16)
    }
    worst_gap, worst_pair = np.inf, None
    items = sorted(bands)
    for i, da in enumerate(items):
        for db in items[i + 1 :]:
            gap = min(bands[da][1], bands[db][1]) - max(bands[da][0], bands[db][0])
            if gap < worst_gap:
                worst_gap, worst_pair = gap, (da, db)
    assert worst_gap >= 0.0, (worst_pair, worst_gap)
    print(
        f"criterion 6: d-stability over d=3..15, tightest band overlap "
        f"{worst_gap:.4f} at d={worst_pair[0]} vs d={worst_pair[1]}"
    )


def test_criterion_07_two_sample():
    """Two-sample mean test: size in [0.05, 0.10] and power >= 0.90.

    N = M = 100, d = 3, alpha = 0.05, 1000 replicates, seed 0; the
    alternative shifts the second sample by 1.0*t*(1-t).  The exact power at
    these settings sits close to the bar (a 24000-replicate measurement gives
    0.901 +- 0.006), so this check is pinned to the frozen seed rather than
    treated as stable across seeds.
    """
    null_rate = run_size_power(
        SimScenario(n=100, m=100, a=0.0, d_list=(3,), alpha_list=(0.05,), reps=1000, seed=0),
        test="two-sample",
    ).p_hat(3, 0.05)
    power = run_size_power(
        SimScenario(n=100, m=100, a=1.0, d_list=(3,), alpha_list=(0.05,), reps=1000, seed=0),
        test="two-sample",
    ).p_hat(3, 0.05)
    assert 0.05 <= null_rate <= 0.10, null_rate
    assert power >= 0.90, power
    print(
        f"criterion 7: two-sample null {null_rate:.4f} in [0.05, 0.10]; "
        f"power {power:.4f} >= 0.90"
    )


def test_criterion_08_standardized_sum_variants():
    """The normal-limit companions behave as documented on null data.

    The integrated (cvm-sum) variant at N=200, d=10 holds size to within
    [0.04, 0.08] at alpha = 0.05; the supremum (sup-sum) variant needs much
    larger samples and must visibly over-reject at N=100 (rate > 0.07).
    """
    cvm_sum = run_size_power(
        SimScenario(n=200, grid_size=1000, d_list=(10,), alpha_list=(0.05,), reps=1000, seed=0),
        test="cvm-sum",
    ).p_hat(10, 0.05)
    sup_sum = run_size_power(
        SimScenario(n=100, grid_size=1000, d_list=(10,), alpha_list=(0.05,), reps=1000, seed=0),
        test="sup-sum",
    ).p_hat(10, 0.05)
    assert 0.04 <= cvm_sum <= 0.08, cvm_sum
    assert sup_sum > 0.07, sup_sum
    print(
        f"criterion 8: cvm-sum size {cvm_sum:.4f} in [0.04, 0.08]; "
        f"sup-sum over-rejection {sup_sum:.4f} > 0.07"
    )


def _localization_errors(start: int, stop: int) -> np.ndarray:
    """|theta_hat - 100| for replicates [start, stop) of the pinned scenario."""
    grid = Grid.uniform(1001)
    bump = 1.5 * grid.points * (1.0 - grid.points)
    out = np.empty(stop - start)
    for i, r in enumerate(range(start, stop)):
        rng = replicate_rng(0, r)
        values = _bm_values(rng, 200, 1000)
        values[100:] += bump
        sample = FunctionalSample(grid, values)
        eig = sample_eigensystem(sample, 5)
        theta = estimate_changepoint(cusum_matrix(compute_scores(sample, eig, 5)))
        out[i] = abs(theta - 100)
    return out


def test_criterion_09_localization():
    """Change-point estimate within 10 of the true index in >= 90% of runs.

    KNOWN RED.  Scenario: 200 Brownian curves, shift 1.5*t*(1-t) after index
    100, d = 5, 500 replicates, seed 0.  The measured hit rate is 0.878 here
    and 0.876-0.885 in 3000-replicate checks across tie-breaking and
    rounding variants of the estimator (0.849 at d = 3), so the shortfall is
    a property of the estimator at this sample size rather than seed luck or
    an implementation slip.  The 0.90 requirement is kept rather than
    weakened; the failure is deliberate and documented.
    """
    errors = _localization_errors(0, 500)
    rate = float(np.mean(errors <= 10))
    print(
        f"criterion 9: localization within 10 in {rate:.4f} of 500 runs "
        f"(median error {np.median(errors):.0f}); requirement >= 0.90 -> "
        + ("PASS" if rate >= 0.90 else "KNOWN RED")
    )
    assert rate >= 0.90, rate


def _cvm_statistic(sample: FunctionalSample, d: int = 4) -> float:
    eig = sample_eigensystem(sample, d)
    cusum = cusum_matrix(compute_scores(sample, eig, d))
    return _cvm_stats_by_prefix(_braces(cusum.values))[d - 1]


def test_criterion_10_invariance_and_determinism(monkeypatch):
    """Statistic invariances and seeded determinism, asserted exactly.

    Sign flips leave the statistic bit-identical; rescaling, a common
    location shift, and reversing the sample order leave it equal to
    round-off; repeated simulations with one seed are bit-identical and
    independent of the core count the draws run on.
    """
    sample = generate_bm_sample(60, 100, seed=424242)
    grid, values = sample.grid, sample.values
    base = _cvm_statistic(sample)

    flipped = _cvm_statistic(FunctionalSample(grid, -values))
    assert flipped == base

    scaled = _cvm_statistic(FunctionalSample(grid, 3.7 * values))
    assert scaled == pytest.approx(base, rel=1e-9)

    shift = 5.0 * np.cos(2.0 * np.pi * grid.points)
    located = _cvm_statistic(FunctionalSample(grid, values + shift))
    assert located == pytest.approx(base, rel=1e-6)

    reversed_order = _cvm_statistic(
        FunctionalSample(grid, np.ascontiguousarray(values[::-1]))
    )
    assert reversed_order == pytest.approx(base, rel=1e-9)

    law_a = simulate_tld(5, reps=200, seed=42)
    law_b = simulate_tld(5, reps=200, seed=42)
    assert np.array_equal(law_a.samples, law_b.samples)

    set_cores(monkeypatch, 1)
    sheet_serial = simulate_gamma_functional(grid_u=60, grid_x=60, reps=200, seed=9)
    set_cores(monkeypatch, 3)
    sheet_parallel = simulate_gamma_functional(grid_u=60, grid_x=60, reps=200, seed=9)
    assert np.array_equal(sheet_serial, sheet_parallel)

    assert _cvm_statistic(sample) == base
    print(
        "criterion 10: sign/scale/location/reversal invariance and seeded "
        "determinism - 8 checks exact"
    )
