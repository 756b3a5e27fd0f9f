"""Pooled covariance and the projected mean-difference test."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from fdchange.curves import FunctionalSample, empirical_covariance
from fdchange.errors import (
    ConfigurationError,
    DegenerateDataError,
    DimensionError,
    GridMismatchError,
)
from fdchange.fpca import eigendecompose
from fdchange.simulation import generate_bm_sample, inject_shift
from fdchange.twosample import pooled_covariance, pooled_eigensystem, two_sample_test


class TestPooledCovariance:
    def test_constant_second_sample_contributes_nothing(self):
        x = generate_bm_sample(10, 30, seed=1)
        y = FunctionalSample(x.grid, np.tile(np.sin(x.grid.points), (7, 1)))
        pooled = pooled_covariance(x, y)
        assert np.allclose(pooled.values, empirical_covariance(x).values, atol=1e-15)

    def test_identical_datasets_double_the_surface(self):
        x = generate_bm_sample(12, 30, seed=2)
        y = FunctionalSample(x.grid, x.values.copy())
        pooled = pooled_covariance(x, y)
        assert np.allclose(pooled.values, 2.0 * empirical_covariance(x).values, rtol=1e-12)

    def test_ratio_weighting(self):
        x = generate_bm_sample(20, 30, seed=3)
        y = generate_bm_sample(5, 30, seed=4)
        pooled = pooled_covariance(x, y)
        expected = (
            empirical_covariance(x).values + 4.0 * empirical_covariance(y).values
        )
        assert np.allclose(pooled.values, expected, rtol=1e-12)

    def test_brownian_pooled_surface_near_doubled_kernel(self):
        x = generate_bm_sample(2000, 80, seed=5)
        y = generate_bm_sample(2000, 80, seed=6)
        pooled = pooled_covariance(x, y)
        t = x.grid.points
        assert np.max(np.abs(pooled.values - 2.0 * np.minimum.outer(t, t))) < 0.2

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            pooled_covariance(generate_bm_sample(5, 30, seed=7), generate_bm_sample(5, 31, seed=8))


class TestPooledEigensystem:
    def test_gram_route_matches_dense_route(self):
        # N + M < T exercises the stacked Gram solve; force the dense route
        # through the public covariance and compare.
        x = generate_bm_sample(30, 150, seed=9)
        y = generate_bm_sample(20, 150, seed=10)
        fast = pooled_eigensystem(x, y, 4)
        dense = eigendecompose(pooled_covariance(x, y), 4)
        assert np.allclose(fast.eigenvalues, dense.eigenvalues, rtol=1e-10)
        assert np.allclose(fast.functions, dense.functions, atol=1e-7)

    def test_statistic_matches_dense_reference(self):
        # two_sample_test takes the Gram route here (N + M = 55 <= T = 150);
        # rebuild the statistic from the dense pooled eigendecomposition.
        x = generate_bm_sample(30, 150, seed=11)
        y = generate_bm_sample(25, 150, seed=12)
        out = two_sample_test(x, y, 3)
        eig = eigendecompose(pooled_covariance(x, y), 3)
        delta = x.values.mean(axis=0) - y.values.mean(axis=0)
        proj = eig.functions[:3] @ (x.grid.weights * delta)
        ref = x.n_curves * float(np.sum(proj**2 / eig.eigenvalues[:3]))
        assert out.statistic == pytest.approx(ref, rel=1e-5)


class TestTwoSampleTest:
    def test_identical_samples_give_zero_statistic(self):
        x = generate_bm_sample(25, 60, seed=13)
        y = FunctionalSample(x.grid, x.values.copy())
        out = two_sample_test(x, y, 5)
        assert out.statistic == 0.0
        assert out.z_score == pytest.approx(-math.sqrt(5.0 / 2.0), rel=1e-12)
        assert out.p_value == pytest.approx(norm.cdf(math.sqrt(5.0 / 2.0)), rel=1e-12)
        assert out.p_value == pytest.approx(0.943, abs=2e-3)

    def test_swap_invariance_at_equal_sizes(self):
        x = generate_bm_sample(30, 80, seed=14)
        y = generate_bm_sample(30, 80, seed=15)
        a = two_sample_test(x, y, 4)
        b = two_sample_test(y, x, 4)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12)

    def test_obvious_shift_rejects(self):
        x = generate_bm_sample(50, 100, seed=16)
        y = inject_shift(generate_bm_sample(50, 100, seed=17), 5.0, "all")
        assert two_sample_test(x, y, 3).p_value < 1e-6

    def test_statistic_is_convex_increasing_in_shift(self):
        # With the pooled projection basis frozen at a = 0, the quadratic form
        # evaluated along y + a * bump is a parabola in a.
        x = generate_bm_sample(40, 90, seed=18)
        y0 = generate_bm_sample(40, 90, seed=19)
        eig = pooled_eigensystem(x, y0, 3)
        t = x.grid.points
        bump = t * (1.0 - t)

        def quad_form(a):
            delta = x.values.mean(axis=0) - y0.values.mean(axis=0) - a * bump
            proj = eig.functions @ (x.grid.weights * delta)
            return float(x.n_curves * np.sum(proj**2 / eig.eigenvalues))

        d0, d1, d2 = quad_form(0.0), quad_form(1.0), quad_form(2.0)
        assert d2 - 2 * d1 + d0 > 0  # strictly convex
        assert d2 > d1 > d0  # increasing along this frozen draw

    def test_dimension_guards(self):
        x = generate_bm_sample(20, 40, seed=20)
        y = generate_bm_sample(20, 40, seed=21)
        with pytest.raises(ConfigurationError):
            two_sample_test(x, y, 0)
        grid = x.grid
        f = np.sin(2 * np.pi * grid.points)
        g = np.cos(2 * np.pi * grid.points)
        rank1_x = FunctionalSample(grid, np.vstack([f, -f, f, -f]))
        rank1_y = FunctionalSample(grid, np.vstack([g, -g, g, -g]))
        with pytest.raises(DimensionError):  # pooled rank is 2, request 3
            two_sample_test(rank1_x, rank1_y, 3)
        const = FunctionalSample(grid, np.tile(grid.points, (10, 1)))
        with pytest.raises(DegenerateDataError):
            two_sample_test(
                const, FunctionalSample(grid, np.tile(grid.points, (8, 1)) * 2.0), 3
            )


class TestNullRateStability:
    def test_rejection_rate_flat_in_d(self):
        # Null rejection frequencies for d = 2..8 on common replicates sit
        # within each other's 90% Monte Carlo bands.
        from fdchange.simulation import SimScenario, confidence_band, run_size_power

        scenario = SimScenario(
            n=100, m=100, grid_size=500, d_list=tuple(range(2, 9)), reps=1000, seed=31
        )
        report = run_size_power(scenario, test="two-sample")
        rates = [report.p_hat(d, 0.05) for d in range(2, 9)]
        bands = [confidence_band(p, 1000) for p in rates]
        for i, (lo_i, hi_i) in enumerate(bands):
            for j, (lo_j, hi_j) in enumerate(bands):
                assert lo_i <= hi_j and lo_j <= hi_i, (
                    f"d={i + 2} and d={j + 2} bands disjoint: {rates[i]:.3f} vs {rates[j]:.3f}"
                )
