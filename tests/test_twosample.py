"""Pooled eigensystem and the projected mean-difference test."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from fdchange.curves import FunctionalSample
from fdchange.errors import (
    ConfigurationError,
    DegenerateDataError,
    DimensionError,
    GridMismatchError,
)
from fdchange.fpca import eigendecompose, sample_eigensystem
from fdchange.limitdist import wiener_eigenvalues
from fdchange.simulation import generate_bm_sample, inject_shift
from fdchange.twosample import pooled_eigensystem, two_sample_test

from test_fpca import assert_same_eigensystem, other_side


def dense_pooled(x, y):
    """Eigenpairs of W^{1/2} (c_N + (N/M) c*_M) W^{1/2} from numpy's biased
    covariances, largest first, and the eigenfunctions they give."""
    cov = np.cov(x.values, rowvar=False, bias=True)
    cov += x.n_curves / y.n_curves * np.cov(y.values, rowvar=False, bias=True)
    w_half = np.sqrt(x.grid.weights)
    vals, vecs = np.linalg.eigh(w_half[:, None] * cov * w_half[None, :])
    return vals[::-1], (vecs[:, ::-1] / w_half[:, None]).T


def stacked_rows(x, y):
    """Rows R with R^T R = c_N + (N/M) c*_M, weighted, built out of place."""
    w_half = np.sqrt(x.grid.weights)
    n, m = x.n_curves, y.n_curves
    xc = (x.values - x.values.mean(axis=0)) * w_half[None, :]
    yc = (y.values - y.values.mean(axis=0)) * w_half[None, :]
    return np.vstack([xc / np.sqrt(n), yc * (np.sqrt(n) / m)])


class TestPooledEigensystem:
    @pytest.mark.parametrize(
        "n, m", [(30, 32), (32, 32), (33, 32)], ids=["n+m<t", "n+m=t", "n+m>t"]
    )
    def test_both_sides_agree(self, n, m):
        x = generate_bm_sample(n, 63, seed=9)  # 64 grid points
        y = generate_bm_sample(m, 63, seed=10)
        eig = pooled_eigensystem(x, y, 4)
        assert_same_eigensystem(eig, other_side(x.grid, stacked_rows(x, y), 1, 4))

    def test_in_place_rows_keep_the_out_of_place_bits(self):
        x = generate_bm_sample(30, 150, seed=9)
        y = generate_bm_sample(20, 150, seed=10)
        reference = eigendecompose(x.grid, stacked_rows(x, y), 1, 4)
        eig = pooled_eigensystem(x, y, 4)
        for name in ("eigenvalues", "functions", "spacings"):
            assert getattr(eig, name).tobytes() == getattr(reference, name).tobytes()

    @pytest.mark.parametrize(
        "n, m, t", [(20, 5, 30), (60, 15, 30)], ids=["gram-side", "t-side"]
    )
    def test_ratio_weighting_matches_the_dense_pooled_covariance(self, n, m, t):
        x = generate_bm_sample(n, t, seed=3)
        y = generate_bm_sample(m, t, seed=4)
        eig = pooled_eigensystem(x, y, 4)
        vals, functions = dense_pooled(x, y)
        assert np.allclose(eig.eigenvalues, vals[:4], rtol=1e-10)
        signs = np.sign(np.sum(eig.functions * functions[:4], axis=1))
        assert np.allclose(eig.functions, signs[:, None] * functions[:4], atol=1e-7)

    @pytest.mark.parametrize("n", [10, 40], ids=["gram-side", "t-side"])
    def test_constant_second_sample_contributes_nothing(self, n):
        x = generate_bm_sample(n, 30, seed=1)
        y = FunctionalSample(x.grid, np.tile(np.sin(x.grid.points), (7, 1)))
        assert_same_eigensystem(pooled_eigensystem(x, y, 4), sample_eigensystem(x, 4))

    @pytest.mark.parametrize("n", [12, 40], ids=["gram-side", "t-side"])
    def test_identical_datasets_double_the_eigenvalues(self, n):
        x = generate_bm_sample(n, 30, seed=2)
        pooled = pooled_eigensystem(x, FunctionalSample(x.grid, x.values.copy()), 4)
        single = sample_eigensystem(x, 4)
        assert np.allclose(pooled.eigenvalues, 2.0 * single.eigenvalues, rtol=1e-10)
        assert np.allclose(pooled.functions, single.functions, atol=1e-7)

    def test_brownian_pooled_eigenvalues_near_the_doubled_kernel(self):
        x = generate_bm_sample(2000, 80, seed=5)
        y = generate_bm_sample(2000, 80, seed=6)
        eig = pooled_eigensystem(x, y, 3)
        assert np.allclose(eig.eigenvalues, 2.0 * wiener_eigenvalues(3), rtol=0.1)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            pooled_eigensystem(
                generate_bm_sample(5, 30, seed=7), generate_bm_sample(5, 31, seed=8), 2
            )

    @pytest.mark.parametrize(
        "n, m, t", [(30, 25, 150), (90, 80, 150)], ids=["gram-side", "t-side"]
    )
    def test_statistic_matches_dense_reference(self, n, m, t):
        # Rebuild the statistic from the dense pooled eigendecomposition.
        x = generate_bm_sample(n, t, seed=11)
        y = generate_bm_sample(m, t, seed=12)
        out = two_sample_test(x, y, 3)
        vals, functions = dense_pooled(x, y)
        delta = x.values.mean(axis=0) - y.values.mean(axis=0)
        proj = functions[:3] @ (x.grid.weights * delta)
        ref = x.n_curves * float(np.sum(proj**2 / vals[:3]))
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
