"""Eigendecomposition, scores and variance fractions."""

import math

import numpy as np
import pytest
from scipy.stats import shapiro

from fdchange import fpca
from fdchange.curves import CovarianceSurface, FunctionalSample, Grid, empirical_covariance
from fdchange.errors import DegenerateDataError, DimensionError
from fdchange.fpca import (
    _spacings,
    compute_scores,
    eigendecompose,
    sample_eigensystem,
    variance_explained,
)
from fdchange.limitdist import wiener_eigenvalues
from fdchange.simulation import generate_bm_sample


def brownian_surface(size=1001):
    grid = Grid.uniform(size)
    t = grid.points
    return CovarianceSurface(grid, np.minimum.outer(t, t))


#: Leading empirical eigenvalues reported for a 156-curve temperature dataset
#: smoothed with a 49-function basis; used to pin variance_explained. The
#: reference list stops at 48 components and omits the last one (~0.3% of the
#: total mass), so the leading fraction is reproduced to 1e-3 only.
REFERENCE_EIGENVALUES = [
    0.7151, 0.1469, 0.1295, 0.1154, 0.1046, 0.1021, 0.0944, 0.0868,
    0.0845, 0.0833, 0.0758, 0.0732, 0.0726, 0.0687, 0.0661, 0.0641,
    0.0620, 0.0586, 0.0559, 0.0559, 0.0534, 0.0508, 0.0472, 0.0463,
    0.0440, 0.0427, 0.0426, 0.0400, 0.0377, 0.0367, 0.0359, 0.0325,
    0.0320, 0.0299, 0.0281, 0.0274, 0.0252, 0.0248, 0.0228, 0.0211,
    0.0207, 0.0201, 0.0188, 0.0171, 0.0166, 0.0163, 0.0129, 0.0114,
]


class TestEigendecompose:
    def test_brownian_kernel_recovers_analytic_spectrum(self):
        eig = eigendecompose(brownian_surface(), 5)
        expected = wiener_eigenvalues(5)
        assert np.allclose(eig.eigenvalues, expected, atol=1e-3)
        assert eig.eigenvalues[0] == pytest.approx(0.405285, abs=1e-3)
        assert eig.eigenvalues[1] == pytest.approx(0.045032, abs=1e-3)

    def test_eigenfunctions_orthonormal_under_quadrature(self):
        eig = eigendecompose(brownian_surface(301), 6)
        gram = eig.functions @ (eig.grid.weights[:, None] * eig.functions.T)
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    def test_rank_one_surface(self):
        grid = Grid.uniform(101)
        f = np.sin(2 * np.pi * grid.points) * math.sqrt(2.0)  # unit norm
        eig = eigendecompose(CovarianceSurface(grid, np.outer(f, f)), 2)
        assert eig.d == 1
        assert eig.truncated
        assert eig.eigenvalues[0] == pytest.approx(1.0, rel=1e-6)
        sign = np.sign(eig.functions[0] @ (grid.weights * f))
        assert np.allclose(eig.functions[0], sign * f, atol=1e-6)

    def test_zero_surface_yields_no_components(self):
        grid = Grid.uniform(11)
        eig = eigendecompose(CovarianceSurface(grid, np.zeros((11, 11))), 3)
        assert eig.d == 0
        assert eig.truncated

    def test_sign_convention_and_determinism(self):
        sample = generate_bm_sample(40, 120, seed=4)
        surf = empirical_covariance(sample)
        a = eigendecompose(surf, 4)
        b = eigendecompose(surf, 4)
        for j in range(4):
            peak = np.argmax(np.abs(a.functions[j]))
            assert a.functions[j][peak] > 0
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.functions, b.functions)

    def test_spacings_definition(self):
        eig = eigendecompose(brownian_surface(401), 4)
        lam = eig.eigenvalues
        assert eig.spacings[0] == pytest.approx(lam[0] - lam[1], rel=1e-12)
        for j in range(1, 3):
            assert eig.spacings[j] == pytest.approx(
                min(lam[j - 1] - lam[j], lam[j] - lam[j + 1]), rel=1e-12
            )

    def test_spacings_match_the_gap_by_gap_reference(self):
        def reference(retained, next_eigenvalue):
            k = retained.size
            if k == 0:
                return np.empty(0)
            extended = (
                retained if next_eigenvalue is None else np.append(retained, next_eigenvalue)
            )
            gaps_up = np.empty(k)  # lambda_{j-1} - lambda_j
            gaps_up[0] = np.inf
            gaps_up[1:] = retained[:-1] - retained[1:]
            gaps_down = np.full(k, np.inf)  # lambda_j - lambda_{j+1}
            avail = min(k, extended.size - 1)
            gaps_down[:avail] = extended[:avail] - extended[1 : avail + 1]
            spac = np.minimum(gaps_up, gaps_down)
            if k == 1:
                spac[0] = retained[0] - (next_eigenvalue if next_eigenvalue is not None else 0.0)
            else:
                spac[0] = retained[0] - retained[1]
            return spac

        rng = np.random.default_rng(2024)
        for _ in range(4000):
            k = int(rng.integers(0, 8))
            spectrum = np.sort(rng.exponential(size=k + 1))[::-1]
            if k > 1 and rng.random() < 0.3:  # ties
                spectrum[1] = spectrum[0]
            if rng.random() < 0.3:
                spectrum = np.round(spectrum, 1)
            nxt = float(spectrum[k]) if rng.random() < 0.5 else None
            retained = spectrum[:k].copy()
            assert _spacings(retained, nxt).tobytes() == reference(retained, nxt).tobytes()

    def test_full_decomposition_reproduces_trace(self):
        sample = generate_bm_sample(30, 40, seed=8)
        surf = empirical_covariance(sample)
        eig = eigendecompose(surf, surf.grid.size)
        assert float(eig.eigenvalues.sum()) == pytest.approx(surf.trace(), rel=1e-8)

    def test_gram_fast_path_matches_surface_route(self):
        # N < T exercises the N x N Gram solve; it must agree with the dense
        # T x T route to roundoff.
        sample = generate_bm_sample(25, 200, seed=12)
        fast = sample_eigensystem(sample, 4)
        dense = eigendecompose(empirical_covariance(sample), 4)
        assert np.allclose(fast.eigenvalues, dense.eigenvalues, rtol=1e-10)
        assert np.allclose(fast.functions, dense.functions, atol=1e-7)

    def test_in_place_weighting_keeps_the_surface_and_the_bits(self, monkeypatch):
        # The weighted, symmetrized kernel is built in place on a copy; the
        # out-of-place formula it replaced gives the same eigenpairs bit for bit.
        surf = empirical_covariance(generate_bm_sample(120, 90, seed=21))
        before = surf.values.tobytes()
        fresh = eigendecompose(surf, 8)
        assert surf.values.tobytes() == before

        def out_of_place(weights, values):
            w_half = np.sqrt(weights)
            b = w_half[:, None] * values * w_half[None, :]
            return (b + b.T) / 2.0

        monkeypatch.setattr(fpca, "_weighted_kernel", out_of_place)
        reference = eigendecompose(surf, 8)
        for name in ("eigenvalues", "functions", "spacings"):
            assert getattr(fresh, name).tobytes() == getattr(reference, name).tobytes()


class TestComputeScores:
    def test_antisymmetric_pair_scores(self):
        grid = Grid.uniform(101)
        f = np.sin(2 * np.pi * grid.points) * math.sqrt(2.0)
        sample = FunctionalSample(grid, np.vstack([f, -f]))
        eig = sample_eigensystem(sample, 1)
        scores = compute_scores(sample, eig, 1)
        col = scores.scores[:, 0]
        assert np.allclose(np.abs(col), [1.0, 1.0], atol=1e-6)
        assert col[0] == pytest.approx(-col[1], abs=1e-10)

    def test_columns_centered_and_variance_matches_eigenvalue(self):
        sample = generate_bm_sample(80, 150, seed=21)
        eig = sample_eigensystem(sample, 3)
        scores = compute_scores(sample, eig, 3)
        for j in range(3):
            col = scores.scores[:, j]
            assert abs(col.sum()) <= 1e-8 * scores.n * math.sqrt(eig.eigenvalues[j])
            assert np.mean(col**2) == pytest.approx(eig.eigenvalues[j], rel=1e-6)

    def test_columns_exactly_uncorrelated(self):
        sample = generate_bm_sample(50, 201, seed=33)
        eig = sample_eigensystem(sample, 4)
        scores = compute_scores(sample, eig, 4).scores
        corr = np.corrcoef(scores, rowvar=False)
        assert np.max(np.abs(corr - np.eye(4))) < 1e-6

    def test_brownian_scores_look_gaussian(self):
        sample = generate_bm_sample(500, 400, seed=55)
        eig = sample_eigensystem(sample, 3)
        scores = compute_scores(sample, eig, 3)
        expected = wiener_eigenvalues(3)
        for j in range(3):
            assert shapiro(scores.scores[:, j]).pvalue > 1e-4
            assert eig.eigenvalues[j] == pytest.approx(expected[j], rel=0.15)

    def test_requesting_too_many_components_raises(self):
        grid = Grid.uniform(41)
        f = grid.points**2
        sample = FunctionalSample(grid, np.vstack([f, -f]))  # rank 1
        eig = sample_eigensystem(sample, 1)
        with pytest.raises(DimensionError, match="1"):
            compute_scores(sample, eig, 2)


class TestVarianceExplained:
    def test_simple_fractions(self):
        assert np.allclose(variance_explained(np.array([2.0, 1.0, 1.0])), [0.5, 0.75, 1.0])
        assert np.allclose(variance_explained(np.array([3.7])), [1.0])

    def test_reference_dataset_leading_fraction(self):
        fractions = variance_explained(np.array(REFERENCE_EIGENVALUES))
        assert fractions[0] == pytest.approx(0.2248, abs=1e-3)
        assert np.all(np.diff(fractions) >= 0)
        assert fractions[-1] == pytest.approx(1.0, abs=1e-12)

    def test_accepts_eigensystem(self):
        eig = eigendecompose(brownian_surface(201), 3)
        assert np.allclose(
            variance_explained(eig), variance_explained(eig.eigenvalues)
        )

    def test_empty_spectrum_raises(self):
        grid = Grid.uniform(11)
        eig = eigendecompose(CovarianceSurface(grid, np.zeros((11, 11))), 2)
        with pytest.raises(DegenerateDataError):
            variance_explained(eig)
