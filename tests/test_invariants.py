"""Invariance properties of the statistics and end-to-end determinism.

The integrated-square change-point statistic is built from per-component
squared CUSUM bridges of projection scores, so it must not move under
sign flips, affine rescaling, common location shifts, or time reversal of
the curve sequence. The two-sample quadratic form shares the first three.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdchange.changepoint import (
    CHANGEPOINT_TESTS,
    _braces,
    _bridge_squares,
    _corollary_statistic,
    _cvm_stats_by_prefix,
    _statistics,
    cusum_matrix,
    estimate_changepoint,
)
from fdchange.curves import FunctionalSample, Grid
from fdchange.fpca import compute_scores, sample_eigensystem
from fdchange.limitdist import simulate_tld
from fdchange.simulation import generate_bm_sample, inject_shift
from fdchange.twosample import two_sample_test

D = 4


def cvm_stat(sample: FunctionalSample, d: int = D) -> float:
    eig = sample_eigensystem(sample, d)
    cusum = cusum_matrix(compute_scores(sample, eig, d))
    return float(_cvm_stats_by_prefix(_braces(cusum.values))[d - 1])


def sum_stats(sample: FunctionalSample, d: int = D) -> tuple[float, float]:
    eig = sample_eigensystem(sample, d)
    cusum = cusum_matrix(compute_scores(sample, eig, d))
    bridge_sq = _bridge_squares(cusum.values)
    return (
        _corollary_statistic("cvm-sum", bridge_sq, d),
        _corollary_statistic("sup-sum", bridge_sq, d),
    )


def theta_of(sample: FunctionalSample, d: int = D) -> int:
    eig = sample_eigensystem(sample, d)
    return estimate_changepoint(cusum_matrix(compute_scores(sample, eig, d)))


@pytest.fixture(scope="module")
def null_sample():
    return generate_bm_sample(60, 100, seed=1)


@pytest.fixture(scope="module")
def shifted_sample():
    return inject_shift(generate_bm_sample(60, 100, seed=2), 2.0, 30)


def remake(sample, values):
    return FunctionalSample(sample.grid, values)


class TestChangepointStatisticInvariance:
    def test_sign_flip_exact(self, null_sample):
        flipped = remake(null_sample, -null_sample.values)
        assert cvm_stat(flipped) == cvm_stat(null_sample)

    def test_scale_invariance(self, null_sample):
        scaled = remake(null_sample, 3.7 * null_sample.values)
        assert cvm_stat(scaled) == pytest.approx(cvm_stat(null_sample), rel=1e-9)
        # stays above the absolute eigenvalue floor (1e-12) but is far from O(1)
        tiny = remake(null_sample, 1e-3 * null_sample.values)
        assert cvm_stat(tiny) == pytest.approx(cvm_stat(null_sample), rel=1e-9)

    def test_location_invariance(self, null_sample):
        t = null_sample.grid.points
        moved = remake(null_sample, null_sample.values + 5.0 * np.cos(2 * np.pi * t))
        assert cvm_stat(moved) == pytest.approx(cvm_stat(null_sample), rel=1e-6)

    def test_time_reversal_invariance(self, null_sample):
        reversed_sample = remake(null_sample, null_sample.values[::-1].copy())
        assert cvm_stat(reversed_sample) == pytest.approx(cvm_stat(null_sample), rel=1e-9)

    def test_holds_under_the_alternative_too(self, shifted_sample):
        base = cvm_stat(shifted_sample)
        flipped = remake(shifted_sample, -shifted_sample.values)
        scaled = remake(shifted_sample, 0.25 * shifted_sample.values)
        reversed_sample = remake(shifted_sample, shifted_sample.values[::-1].copy())
        assert cvm_stat(flipped) == base
        assert cvm_stat(scaled) == pytest.approx(base, rel=1e-9)
        assert cvm_stat(reversed_sample) == pytest.approx(base, rel=1e-9)


def spectrum_sample(seed: int, components: int, decades: float) -> FunctionalSample:
    """80 raw curves on 121 points: sum_k xi_ik sqrt(var_k) sqrt(2) sin(k pi t),
    with variances falling evenly in log from 1 over ``decades`` decades."""
    grid = Grid.uniform(121)
    k = np.arange(1, components + 1)
    basis = np.sqrt(2.0) * np.sin(np.pi * k[:, None] * grid.points)
    sd = 10.0 ** (-0.5 * decades * np.linspace(0.0, 1.0, components))
    xi = np.random.default_rng(seed).standard_normal((80, components))
    return FunctionalSample(grid, (xi * sd) @ basis)


def every_statistic(sample: FunctionalSample, d_max: int):
    """The eigensystem and, per change-point method, its statistic at d = 2..retained."""
    eig = sample_eigensystem(sample, d_max)
    cusum = cusum_matrix(compute_scores(sample, eig, eig.d))
    d_list = range(2, eig.d + 1)
    return eig, {m: _statistics(cusum.values, m, d_list) for m in CHANGEPOINT_TESTS}


class TestLocationShiftProperty:
    """Adding c g(t), one fixed function, to every curve moves no statistic.

    Centering removes c g once, at the data's scale; the rounding it leaves
    shifts each score column by a constant, which the CUSUM bridges cancel.
    A spectrum spanning many decades makes that rounding large next to the
    smallest score sums, which is where a check that the CUSUM ends at zero
    used to reject the data. Only d whose leading eigenvalues are all well
    separated (relative spacing >= 1e-3) are compared: below that the
    eigenfunctions themselves are not determined by the data. Drawn spectra
    span at most six decades, since far below the top eigenvalue the
    eigensolve, not the offset, limits how well a component is resolved.
    """

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        components=st.integers(3, 12),
        decades=st.floats(0.0, 6.0),
        c=st.floats(-1e6, 1e6),
    )
    @example(seed=1, components=12, decades=10.0, c=1e3)  # the end-at-zero check rejected it
    def test_statistics_ignore_an_added_function(self, seed, components, decades, c):
        sample = spectrum_sample(seed, components, decades)
        g = 1.0 + sample.grid.points**2
        eig, base = every_statistic(sample, components)
        moved_eig, moved = every_statistic(remake(sample, sample.values + c * g), components)
        relative = eig.spacings / eig.eigenvalues
        separated = [
            d for d in range(2, min(eig.d, moved_eig.d) + 1) if relative[:d].min() >= 1e-3
        ]
        for method in CHANGEPOINT_TESTS:
            for d in separated:
                assert moved[method][d - 2] == pytest.approx(base[method][d - 2], rel=1e-6)


class TestCorollaryStatisticInvariance:
    def test_all_four_transformations(self, null_sample):
        cvm_base, sup_base = sum_stats(null_sample)
        t = null_sample.grid.points
        variants = [
            remake(null_sample, -null_sample.values),
            remake(null_sample, 2.5 * null_sample.values),
            remake(null_sample, null_sample.values + 1.0 + t),
            remake(null_sample, null_sample.values[::-1].copy()),
        ]
        for variant in variants:
            cvm_v, sup_v = sum_stats(variant)
            assert cvm_v == pytest.approx(cvm_base, rel=1e-6)
            assert sup_v == pytest.approx(sup_base, rel=1e-6)


class TestEstimatorInvariance:
    def test_sign_scale_location(self, shifted_sample):
        theta = theta_of(shifted_sample)
        t = shifted_sample.grid.points
        assert theta_of(remake(shifted_sample, -shifted_sample.values)) == theta
        assert theta_of(remake(shifted_sample, 11.0 * shifted_sample.values)) == theta
        moved = remake(shifted_sample, shifted_sample.values - 3.0 * np.sin(np.pi * t))
        assert theta_of(moved) == theta

    def test_time_reversal_mirrors_the_location(self, shifted_sample):
        n = shifted_sample.n_curves
        theta = theta_of(shifted_sample)
        reversed_theta = theta_of(
            remake(shifted_sample, shifted_sample.values[::-1].copy())
        )
        assert abs(reversed_theta - (n - theta)) <= 1


class TestTwoSampleInvariance:
    def test_common_transformations(self):
        x = generate_bm_sample(30, 80, seed=3)
        y = inject_shift(generate_bm_sample(30, 80, seed=4), 0.7, "all")
        base = two_sample_test(x, y, 3).statistic
        t = x.grid.points

        flipped = two_sample_test(remake(x, -x.values), remake(y, -y.values), 3)
        assert flipped.statistic == pytest.approx(base, rel=1e-12)

        scaled = two_sample_test(remake(x, 4.0 * x.values), remake(y, 4.0 * y.values), 3)
        assert scaled.statistic == pytest.approx(base, rel=1e-9)

        shift = 2.0 + np.sin(2 * np.pi * t)
        moved = two_sample_test(remake(x, x.values + shift), remake(y, y.values + shift), 3)
        assert moved.statistic == pytest.approx(base, rel=1e-6)


class TestDeterminism:
    def test_limit_law_replays_bitwise(self):
        a = simulate_tld(truncation=5, reps=200, seed=42)
        b = simulate_tld(truncation=5, reps=200, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_full_pipeline_is_deterministic(self, shifted_sample):
        assert cvm_stat(shifted_sample) == cvm_stat(shifted_sample)
        assert theta_of(shifted_sample) == theta_of(shifted_sample)
