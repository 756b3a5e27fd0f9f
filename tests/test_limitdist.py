"""Reference distributions: spectra, samplers, and closed-form bridge moments."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kolmogorov

from fdchange.errors import ConfigurationError, ResolutionError
from fdchange.limitdist import (
    bridge_sq_kernel_eigenvalues,
    bridge_sup_moments,
    simulate_gamma_functional,
    simulate_tld,
    wiener_eigenvalues,
)

from conftest import WORKERS


class TestWienerEigenvalues:
    def test_formula(self):
        vals = wiener_eigenvalues(2)
        assert vals[0] == pytest.approx(4.0 / math.pi**2, rel=1e-14)
        assert vals[1] == pytest.approx(4.0 / (9.0 * math.pi**2), rel=1e-14)

    def test_partial_sum_and_tail(self):
        vals = wiener_eigenvalues(49)
        direct = sum(1.0 / (math.pi * (k - 0.5)) ** 2 for k in range(1, 50))
        assert float(vals.sum()) == pytest.approx(direct, rel=1e-14)
        assert float(vals.sum()) == pytest.approx(0.4979322924995223, abs=1e-12)
        tail = 0.5 - float(vals.sum())
        assert 0.0 < tail < 2.0 / (math.pi**2 * 49)

    def test_strictly_decreasing_positive(self):
        vals = wiener_eigenvalues(20)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] > 0


class TestBridgeSquaredKernelEigenvalues:
    def test_full_spectrum_reproduces_trace(self):
        nu = bridge_sq_kernel_eigenvalues(None, 1000)
        assert float(nu.sum()) == pytest.approx(1.0 / 15.0, abs=1e-4)

    def test_leading_eigenvalue(self):
        nu1 = float(bridge_sq_kernel_eigenvalues(1, 1000)[0])
        assert 0.03 < nu1 < 1.0 / 15.0
        # Converged: refining the quadrature grid moves it by < 1e-6.
        nu1_fine = float(bridge_sq_kernel_eigenvalues(1, 2000)[0])
        assert abs(nu1 - nu1_fine) < 1e-6

    def test_nonnegative_and_sorted(self):
        nu = bridge_sq_kernel_eigenvalues(49, 1000)
        assert np.all(nu >= -1e-10)
        assert np.all(np.diff(nu) <= 0)

    def test_too_coarse_grid_raises(self):
        with pytest.raises(ResolutionError):
            bridge_sq_kernel_eigenvalues(49, 100)


class TestSimulateTld:
    def test_quantiles_monotone_and_consistent(self, law20k):
        cvs = [law20k.critical_value(a) for a in (0.01, 0.05, 0.10)]
        assert cvs[0] > cvs[1] > cvs[2] > 0
        for alpha, cv in law20k.quantiles.items():
            assert cv == pytest.approx(law20k.critical_value(alpha), rel=1e-12)

    def test_sample_mean_matches_series_expectation(self, law20k):
        # E = (sum lam)(sum nu): each squared normal has mean one.
        expected = float(law20k.wiener_eigs.sum() * law20k.bridge_sq_eigs.sum())
        se = float(law20k.samples.std(ddof=1) / math.sqrt(law20k.reps))
        assert abs(float(law20k.samples.mean()) - expected) < 3 * se
        assert expected == pytest.approx(1.0 / 30.0, abs=2e-3)

    def test_five_percent_critical_value(self, law20k):
        assert law20k.critical_value(0.05) == pytest.approx(0.0726, abs=0.004)

    def test_deterministic_and_worker_count_free(self):
        a = simulate_tld(truncation=7, reps=400, seed=99, nystrom_points=200)
        b = simulate_tld(truncation=7, reps=400, seed=99, nystrom_points=200)
        c = simulate_tld(truncation=7, reps=400, seed=99, nystrom_points=200, workers=2)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.samples, c.samples)
        assert a.quantiles == c.quantiles

    def test_replicate_streams_match_documented_scheme(self):
        # Replicate r must draw from Generator(Philox(seed).jumped(r)),
        # independently of chunking: reconstruct the draws by hand.
        law = simulate_tld(truncation=5, reps=120, seed=17, nystrom_points=200)
        lam, nu = law.wiener_eigs, law.bridge_sq_eigs
        draws = []
        for r in range(120):
            g = np.random.Generator(np.random.Philox(17).jumped(r)).standard_normal(
                (5, nu.size)
            )
            draws.append(float(lam @ (g * g) @ nu))
        assert np.array_equal(np.sort(draws), law.samples)

    def test_p_value_add_one_smoothing(self, law20k):
        reps = law20k.reps
        assert law20k.p_value(-1.0) == 1.0
        assert law20k.p_value(float(law20k.samples[-1]) + 1.0) == 1.0 / (reps + 1)
        # A statistic sitting exactly on an order statistic counts ties as
        # non-exceeding.
        assert law20k.p_value(float(law20k.samples[-3])) == 3.0 / (reps + 1)
        assert type(law20k.p_value(0.05)) is float
        stats = np.array([[-1.0, 0.02], [0.05, float(law20k.samples[-3])]])
        vector = law20k.p_value(stats)
        assert vector.shape == stats.shape
        assert vector.tolist() == [[law20k.p_value(float(v)) for v in row] for row in stats]

    def test_rejects_tiny_reps(self):
        with pytest.raises(ConfigurationError):
            simulate_tld(truncation=5, reps=10, seed=0)


class TestGammaRepresentation:
    def test_grid_resolution_guard(self):
        with pytest.raises(ResolutionError):
            simulate_gamma_functional(grid_u=20, grid_x=200, reps=200, seed=0)

    def test_mean_near_one_thirtieth(self):
        draws = simulate_gamma_functional(
            grid_u=100, grid_x=100, reps=2000, seed=5, workers=WORKERS
        )
        assert float(draws.mean()) == pytest.approx(1.0 / 30.0, rel=0.10)

    def test_replicate_streams_match_documented_scheme(self):
        # Replicate r draws its (grid_u, grid_x - 1) sheet increments from
        # Generator(Philox(seed).jumped(r)); rebuild the field independently.
        grid_u, grid_x = 50, 60
        draws = simulate_gamma_functional(grid_u=grid_u, grid_x=grid_x, reps=100, seed=23)
        x = np.linspace(0.0, 1.0, grid_x + 1)[1:-1]
        dy = np.diff((x / (1.0 - x)) ** 2, prepend=0.0)
        u_axis = np.linspace(0.0, 1.0, grid_u + 1)
        x_axis = np.linspace(0.0, 1.0, grid_x + 1)
        expected = []
        for r in range(100):
            rng = np.random.Generator(np.random.Philox(23).jumped(r))
            steps = rng.standard_normal((grid_u, grid_x - 1)) * np.sqrt(dy / grid_u)
            field = np.zeros((grid_u + 1, grid_x + 1))
            field[1:, 1:-1] = (
                math.sqrt(2.0) * (1.0 - x) ** 2 * steps.cumsum(axis=0).cumsum(axis=1)
            )
            inner = np.trapezoid(field**2, x_axis, axis=1)
            expected.append(np.trapezoid(inner, u_axis))
        np.testing.assert_allclose(draws, expected, rtol=1e-12, atol=0.0)

    def test_agrees_with_series_sampler_upper_quantile(self, law20k):
        draws = simulate_gamma_functional(
            grid_u=150, grid_x=150, reps=4000, seed=6, workers=WORKERS
        )
        assert float(np.quantile(draws, 0.95)) == pytest.approx(
            law20k.critical_value(0.05), abs=0.006
        )


def kolmogorov_moments(c):
    """Mean and sd of (K - c)^2, K Kolmogorov-distributed, by quadrature.

    E g(K) = g(0) + int_0^inf g'(x) P(K > x) dx for g = (x - c)^2, (x - c)^4;
    P(K > x) is below 1e-80 beyond x = 10.
    """

    def expect(power):
        def integrand(x):
            return power * (x - c) ** (power - 1) * kolmogorov(x)

        return c**power + quad(integrand, 0, 10, epsabs=0, epsrel=1e-13)[0]

    second = expect(2)
    return second, math.sqrt(expect(4) - second**2)


def random_walk_bridge_sups(n, reps, seed, chunk=10_000):
    """max_k B(k/n)^2 over k = 0..n for random-walk bridges of n steps."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, n + 1) / n
    out = []
    for start in range(0, reps, chunk):
        walk = rng.standard_normal((min(chunk, reps - start), n)).cumsum(axis=1) / math.sqrt(n)
        bridge = walk - t[None, :] * walk[:, -1:]
        out.append((bridge * bridge).max(axis=1))
    return np.concatenate(out)


BETA = 0.5825971579390108  # -zeta(1/2) / sqrt(2 pi)


class TestBridgeSupMoments:
    @pytest.mark.parametrize("n", [20, 100, 2000, None], ids=["20", "100", "2000", "continuum"])
    def test_matches_kolmogorov_quadrature(self, n):
        c = 0.0 if n is None else BETA / math.sqrt(n)
        mu, sigma = bridge_sup_moments(10**30 if n is None else n)
        ref_mu, ref_sigma = kolmogorov_moments(c)
        assert mu == pytest.approx(ref_mu, rel=1e-10)
        assert sigma == pytest.approx(ref_sigma, rel=1e-10)

    def test_moments_near_analytic_values(self):
        # E sup B^2 = pi^2/12 and sd(sup B^2) = pi^2/sqrt(360) exactly.
        mu, sigma = bridge_sup_moments(10**30)
        assert mu == pytest.approx(math.pi**2 / 12.0, rel=1e-12)
        assert sigma == pytest.approx(math.pi**2 / math.sqrt(360.0), rel=1e-12)

    @pytest.mark.parametrize("n", [50, 400])
    def test_matches_random_walk_bridges(self, n):
        sups = random_walk_bridge_sups(n, reps=100_000, seed=20260915 + n)
        mu, sigma = bridge_sup_moments(n)
        centered = sups - sups.mean()
        se_mu = sups.std(ddof=1) / math.sqrt(sups.size)
        se_sigma = (centered**2).std(ddof=1) / math.sqrt(sups.size) / (2.0 * sups.std(ddof=1))
        assert abs(sups.mean() - mu) < 4.0 * se_mu
        assert abs(sups.std(ddof=1) - sigma) < 4.0 * se_sigma

    def test_finer_grid_moves_mean_toward_continuum(self):
        means = [bridge_sup_moments(n)[0] for n in (20, 100, 2000)]
        assert means[0] < means[1] < means[2] < math.pi**2 / 12.0

    def test_sup_over_nested_grids_is_monotone(self):
        # On one driving path, the sup over a refinement dominates the sup
        # over any sub-grid pointwise.
        rng = np.random.default_rng(123)
        for _ in range(50):
            walk = rng.standard_normal(2000).cumsum() / math.sqrt(2000)
            t = np.arange(1, 2001) / 2000
            bridge_sq = (walk - t * walk[-1]) ** 2
            assert bridge_sq.max() >= bridge_sq[19::20].max()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bridge_sup_moments(0)
