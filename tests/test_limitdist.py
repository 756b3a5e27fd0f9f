"""Reference distributions: spectra, samplers, closed-form bridge moments and
the normal-limit p-value."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kolmogorov
from scipy.stats import norm

from fdchange.curves import Grid
from fdchange.errors import ConfigurationError, ResolutionError
from fdchange.fpca import _keep_count, default_eigenvalue_floor
from fdchange import limitdist
from fdchange.limitdist import (
    _BLOCK_BYTES,
    _NYSTROM_TABLE,
    MAX_TRUNCATION,
    MIN_REPS,
    NYSTROM_POINTS,
    LimitLaw,
    bridge_sq_kernel_eigenvalues,
    bridge_sup_moments,
    normal_p_value,
    simulate_tld,
    wiener_eigenvalues,
)

from _references import kernel_spectrum, simulate_gamma_functional, tld_chunk_per_draw
from conftest import set_cores


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


def bridge_sq_spectrum(points):
    """Descending eigenvalues of 2 (min(s,t) - st)^2 on a uniform grid."""
    grid = Grid.uniform(points)
    t = grid.points
    return kernel_spectrum(grid, 2.0 * (np.minimum.outer(t, t) - np.outer(t, t)) ** 2)


class TestBridgeSquaredKernelEigenvalues:
    def test_full_spectrum_reproduces_trace(self):
        vals = bridge_sq_spectrum(NYSTROM_POINTS)
        nu = vals[: _keep_count(vals, NYSTROM_POINTS)]
        assert float(nu.sum()) == pytest.approx(1.0 / 15.0, abs=1e-4)

    def test_leading_eigenvalue(self):
        nu1 = float(bridge_sq_kernel_eigenvalues(1)[0])
        assert 0.03 < nu1 < 1.0 / 15.0
        # Converged: refining the quadrature grid moves it by < 1e-6.
        nu1_fine = float(bridge_sq_spectrum(2 * NYSTROM_POINTS)[0])
        assert abs(nu1 - nu1_fine) < 1e-6

    def test_nonnegative_and_sorted(self):
        nu = bridge_sq_kernel_eigenvalues(49)
        assert np.all(nu >= -1e-10)
        assert np.all(np.diff(nu) <= 0)

    @pytest.mark.parametrize("count, points", [(49, 1000)])
    def test_one_buffer_build_matches_the_out_of_place_formula(self, count, points):
        # The table holds the bits of the out-of-place formula on the law's grid.
        vals = bridge_sq_spectrum(points)
        got = bridge_sq_kernel_eigenvalues(count)
        assert got.tobytes() == vals[: _keep_count(vals, count)].tobytes()


class TestNystromTable:
    """The law's eigenvalues come from ``_NYSTROM_TABLE``, not a solve."""

    def test_every_entry_matches_the_out_of_place_formula(self):
        vals = bridge_sq_spectrum(NYSTROM_POINTS)
        table = np.array(_NYSTROM_TABLE)
        np.testing.assert_allclose(table, vals[: table.size], rtol=1e-12, atol=0.0)

    def test_every_count_keeps_every_entry(self):
        table = np.array(_NYSTROM_TABLE)
        assert table.size == MAX_TRUNCATION
        assert np.all(np.diff(table) < 0)
        assert np.all(table > default_eigenvalue_floor(float(table[0])))
        for count in (1, 49, 250):
            assert _keep_count(table, count) == count
            assert bridge_sq_kernel_eigenvalues(count).tobytes() == table[:count].tobytes()

    def test_checks_come_before_the_table(self):
        with pytest.raises(ConfigurationError):
            bridge_sq_kernel_eigenvalues(0)
        with pytest.raises(ResolutionError):
            bridge_sq_kernel_eigenvalues(MAX_TRUNCATION + 1)

    def test_returns_a_fresh_writable_array(self):
        law = simulate_tld(49, reps=MIN_REPS, seed=0)
        assert not law.bridge_sq_eigs.flags.writeable
        nu = bridge_sq_kernel_eigenvalues(49)
        assert nu.flags.writeable and nu.flags.owndata
        assert not np.shares_memory(nu, law.bridge_sq_eigs)
        nu[:] = -1.0
        assert np.array_equal(bridge_sq_kernel_eigenvalues(49), law.bridge_sq_eigs)


class TestLimitLaw:
    """The law stores its draws; its spectra and count follow from them."""

    def test_derives_count_and_spectra(self):
        law = LimitLaw(truncation=7, samples=np.arange(150.0), seed=3)
        assert law.reps == law.samples.size == 150
        assert np.array_equal(law.wiener_eigs, wiener_eigenvalues(7))
        assert np.array_equal(law.bridge_sq_eigs, bridge_sq_kernel_eigenvalues(7))
        for spectrum in (law.wiener_eigs, law.bridge_sq_eigs, law.samples):
            assert not spectrum.flags.writeable
        # Each read is a fresh array: nothing a caller holds aliases another's.
        assert not np.shares_memory(law.wiener_eigs, law.wiener_eigs)

    @pytest.mark.parametrize(
        "samples", [[1.0, 3.0, 2.0], [[1.0, 2.0]]], ids=["unsorted", "two-d"]
    )
    def test_rejects_samples_that_are_not_sorted_1d(self, samples):
        with pytest.raises(ValueError, match="sorted 1-d"):
            LimitLaw(truncation=3, samples=np.array(samples), seed=0)


class TestSimulateTld:
    def test_quantiles_monotone_and_consistent(self, law20k):
        cvs = [law20k.critical_value(a) for a in (0.01, 0.05, 0.10)]
        assert cvs[0] > cvs[1] > cvs[2] > 0

    def test_sample_mean_matches_series_expectation(self, law20k):
        # E = (sum lam)(sum nu): each squared normal has mean one.
        expected = float(law20k.wiener_eigs.sum() * law20k.bridge_sq_eigs.sum())
        se = float(law20k.samples.std(ddof=1) / math.sqrt(law20k.reps))
        assert abs(float(law20k.samples.mean()) - expected) < 3 * se
        assert expected == pytest.approx(1.0 / 30.0, abs=2e-3)

    def test_five_percent_critical_value(self, law20k):
        assert law20k.critical_value(0.05) == pytest.approx(0.0726, abs=0.004)

    def test_deterministic_and_core_count_free(self, monkeypatch):
        set_cores(monkeypatch, 1)
        a = simulate_tld(truncation=7, reps=400, seed=99)
        b = simulate_tld(truncation=7, reps=400, seed=99)
        set_cores(monkeypatch, 3)
        c = simulate_tld(truncation=7, reps=400, seed=99)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.samples, c.samples)

    def test_replicate_streams_match_documented_scheme(self):
        # Replicate r must draw from Generator(Philox(seed).jumped(r)),
        # independently of chunking: reconstruct the draws by hand.
        law = simulate_tld(truncation=5, reps=120, seed=17)
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

    def test_default_law_traced_peak(self):
        # The eigenvalues come from the table, so no n x n kernel (8 MB at
        # n = 1000) is built.
        simulate_tld(49, reps=200)  # first-call allocations stay out
        tracemalloc.start()
        try:
            simulate_tld(49, reps=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


    def test_truncation_250_law_traced_peak(self, monkeypatch):
        # At K = 250 one draw's normals take 500 KB, so a block holds one
        # draw. The bound is the one-draw loop's peak (1016636 bytes with two
        # threads) plus 10%; a block that grew with K would break it.
        set_cores(monkeypatch, 2)
        simulate_tld(250, reps=200)
        tracemalloc.start()
        try:
            simulate_tld(250, reps=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 1_016_636


def _span_lengths(k):
    """Chunk lengths around the byte-bound block length b at truncation ``k``:
    1, b - 1, b, b + 1, 3b + 2 and 4b + 1, up to 40000 draws."""
    b = max(1, _BLOCK_BYTES // (8 * k * k))
    return sorted(n for n in {1, b - 1, b, b + 1, 3 * b + 2, 4 * b + 1} if 0 < n <= 40_000)


class TestTldChunk:
    """The blocked draw against the one-draw loop of ``_references``, bit for bit."""

    @pytest.mark.parametrize(
        "k, length", [(k, n) for k in (1, 2, 49, 250) for n in _span_lengths(k)]
    )
    @pytest.mark.parametrize("start", [0, 12_345])
    def test_span_matches_the_per_draw_loop(self, k, length, start):
        lam, nu = wiener_eigenvalues(k), bridge_sq_kernel_eigenvalues(k)
        got = limitdist._tld_chunk(3, lam, nu, start, start + length)
        want = tld_chunk_per_draw(3, lam, nu, start, start + length)
        assert got.tobytes() == want.tobytes()

    def test_calls_share_no_block(self, monkeypatch):
        # A call that runs while another is between fills, as a thread's
        # would, must leave the other's block alone.
        lam, nu = wiener_eigenvalues(49), bridge_sq_kernel_eigenvalues(49)
        streams = limitdist.replicate_rngs
        inner = []

        def interleaved(seed, start, stop):
            for r, rng in enumerate(streams(seed, start, stop), start):
                yield rng
                if seed == 5 and r == start + 2:
                    inner.append(limitdist._tld_chunk(6, lam, nu, 0, 70))

        monkeypatch.setattr(limitdist, "replicate_rngs", interleaved)
        outer = limitdist._tld_chunk(5, lam, nu, 0, 70)
        assert len(inner) == 1
        assert outer.tobytes() == tld_chunk_per_draw(5, lam, nu, 0, 70).tobytes()
        assert inner[0].tobytes() == tld_chunk_per_draw(6, lam, nu, 0, 70).tobytes()


class TestGammaRepresentation:
    def test_grid_resolution_guard(self):
        with pytest.raises(ResolutionError):
            simulate_gamma_functional(grid_u=20, grid_x=200, reps=200, seed=0)

    def test_mean_near_one_thirtieth(self):
        draws = simulate_gamma_functional(grid_u=100, grid_x=100, reps=2000, seed=5)
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
        draws = simulate_gamma_functional(grid_u=150, grid_x=150, reps=4000, seed=6)
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


class TestNormalPValue:
    def test_matches_scipy_normal_tail(self):
        z = np.linspace(-8.0, 8.0, 1601)
        assert normal_p_value(z) == pytest.approx(norm.sf(z), rel=1e-13)

    def test_scalar_gives_float_and_array_keeps_shape(self):
        z = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        p = normal_p_value(z)
        assert isinstance(p, np.ndarray) and p.shape == (3, 4)
        for value in (1.5, np.float64(1.5), 0):
            assert type(normal_p_value(value)) is float
        assert normal_p_value(0.0) == 0.5
        assert normal_p_value(float(z[1, 2])) == p[1, 2]

    def test_in_unit_interval_and_non_increasing(self):
        p = normal_p_value(np.linspace(-40.0, 40.0, 8001))
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(np.diff(p) <= 0.0)
