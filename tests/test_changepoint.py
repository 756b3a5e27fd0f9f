"""CUSUM machinery, the integrated-square test, normal-limit companions,
the change-point estimator, and binary segmentation."""

import math

import numpy as np
import pytest

from fdchange.changepoint import (
    CusumMatrix,
    _braces,
    _bridge_squares,
    _corollary_statistic,
    _cvm_stats_by_prefix,
    _estimator_curve,
    binary_segmentation,
    corollary_tests,
    cusum_matrix,
    cvm2d_test,
    estimate_changepoint,
    sample_cusum,
)
from fdchange._rng import replicate_rng
from fdchange.curves import FunctionalSample, Grid
from fdchange.errors import ConfigurationError
from fdchange.fpca import compute_scores, sample_eigensystem
from fdchange.limitdist import LimitLaw
from fdchange.simulation import _bm_values, generate_bm_sample, inject_shift

from _datasets import MULTI_CHANGE_AFTER, multi_change_sample
from test_limitdist import BETA, kolmogorov_moments


def bm_cusum(n=60, grid_size=120, d=4, seed=0):
    sample = generate_bm_sample(n, grid_size, seed=seed)
    eig = sample_eigensystem(sample, d)
    return cusum_matrix(compute_scores(sample, eig, d))


def reference_cvm_statistic(cusum_values: np.ndarray, d: int) -> float:
    """Direct double Riemann sum over the step cells, written as plain loops.

    The squared process is constant on cells [j/d, (j+1)/d) x [k/N, (k+1)/N);
    the cell starting at u = j/d aggregates components 1..j.
    """
    n = cusum_values.shape[1] - 1
    total = 0.0
    for j in range(d):
        for k in range(n):
            x = k / n
            z = sum(
                (cusum_values[i, k] - x * cusum_values[i, n]) ** 2 / n - x * (1 - x)
                for i in range(j)
            )
            total += z * z / (d * n)
    return total / d


def reference_estimator_curve(cusum_values: np.ndarray) -> np.ndarray:
    d = cusum_values.shape[0]
    n = cusum_values.shape[1] - 1
    out = np.empty(n)
    for ell in range(1, n + 1):
        x = ell / n
        acc = 0.0
        running = 0.0
        for i in range(d - 1):
            running += (cusum_values[i, ell] - x * cusum_values[i, n]) ** 2 / n - x * (
                1 - x
            )
            acc += running**2
        out[ell - 1] = acc / d**2
    return out


class TestCusumMatrix:
    def test_two_point_antisymmetric_sample(self):
        grid = Grid.uniform(101)
        f = math.sqrt(2.0) * np.sin(2 * np.pi * grid.points)  # unit norm
        sample = FunctionalSample(grid, np.vstack([f, -f]))
        eig = sample_eigensystem(sample, 1)
        cusum = cusum_matrix(compute_scores(sample, eig, 1))
        assert cusum.values.shape == (1, 3)
        assert cusum.values[0, 0] == 0.0
        assert abs(cusum.values[0, 1]) == pytest.approx(1.0, abs=1e-8)
        assert cusum.values[0, 2] == pytest.approx(0.0, abs=1e-8)

    def test_last_column_vanishes(self):
        cusum = bm_cusum(seed=3)
        assert np.max(np.abs(cusum.values[:, -1])) < 1e-8

    def test_rows_are_scaled_score_sums(self):
        sample = generate_bm_sample(30, 80, seed=6)
        eig = sample_eigensystem(sample, 3)
        scores = compute_scores(sample, eig, 3)
        cusum = cusum_matrix(scores)
        manual = np.cumsum(scores.scores[:, 1]) / math.sqrt(eig.eigenvalues[1])
        assert np.allclose(cusum.values[1, 1:], manual, rtol=1e-12)

    def test_brownian_sup_is_moderate(self):
        # Normalized partial sums behave like a Brownian bridge; sup/sqrt(N)
        # beyond 3 has well under 5% probability per component. Frozen seed.
        cusum = bm_cusum(n=200, grid_size=300, d=5, seed=9)
        assert np.max(np.abs(cusum.values)) / math.sqrt(200) < 3.0


def z_process(cusum_values: np.ndarray) -> np.ndarray:
    """Z(j/d, k/N) for j = 1..d and k = 0..N, from the module docstring:
    d^(-1/2) times the prefix sums over components of the centred bridge
    squares N^(-1) (S_j(k) - x S_j(N))^2 - x (1 - x) at x = k/N."""
    d, n = cusum_values.shape[0], cusum_values.shape[1] - 1
    x = np.arange(n + 1) / n
    centred = (cusum_values - x * cusum_values[:, -1:]) ** 2 / n - x * (1.0 - x)
    return np.cumsum(centred, axis=0) / math.sqrt(d)


class TestZProcess:
    def test_boundary_columns_are_zero(self):
        grid = z_process(bm_cusum(seed=1).values)
        assert np.all(grid[:, 0] == 0.0)
        assert np.all(grid[:, -1] == 0.0)

    def test_single_component_statistic_degenerates_to_zero(self):
        cusum = bm_cusum(d=1, seed=2)
        stats = _cvm_stats_by_prefix(_braces(cusum.values))
        assert stats[0] == 0.0

    def test_statistic_equals_cell_sum_of_squared_process(self):
        cusum = bm_cusum(d=5, seed=4)
        grid = z_process(cusum.values)
        stat = _cvm_stats_by_prefix(_braces(cusum.values))[4]
        # Left rule: cells [j/d, (j+1)/d) carry the first j components, so the
        # last process row never enters and the k = N column has measure zero.
        cells = grid[:-1, :-1]
        assert stat == pytest.approx(
            float((cells**2).sum()) / (cusum.d * cusum.n), rel=1e-12
        )


class TestIntegratedSquareStatistic:
    @pytest.mark.parametrize("seed,d", [(0, 2), (1, 3), (2, 5)])
    def test_matches_loop_reference(self, seed, d):
        cusum = bm_cusum(n=25, grid_size=60, d=d, seed=seed)
        stat = _cvm_stats_by_prefix(_braces(cusum.values))[d - 1]
        assert stat == pytest.approx(
            reference_cvm_statistic(np.asarray(cusum.values), d), rel=1e-10
        )

    def test_equals_mean_of_estimator_curve(self):
        cusum = bm_cusum(n=40, grid_size=100, d=4, seed=11)
        braces = _braces(cusum.values)
        stat = _cvm_stats_by_prefix(braces)[3]
        curve = _estimator_curve(braces)
        assert stat == pytest.approx(float(curve.mean()), rel=1e-12)

    def test_rejects_enormous_shift(self, law20k):
        sample = inject_shift(generate_bm_sample(100, 300, seed=13), 100.0, 50)
        outcome = cvm2d_test(*sample_cusum(sample, 3), law20k)
        assert outcome.p_value < 0.001
        assert outcome.method == "cvm2d"

    def test_rejects_a_single_component(self, law20k):
        # At d = 1 the statistic is 0 by construction, so cvm2d could never
        # reject; the normal-limit companions stay valid there.
        sample = inject_shift(generate_bm_sample(60, 120, seed=16), 5.0, 30)
        eig, cusum = sample_cusum(sample, 1)
        with pytest.raises(ConfigurationError, match=r"cvm2d needs d >= 2, got 1"):
            cvm2d_test(eig, cusum, law20k)
        for variant in ("sup-bridge", "cvm-sum", "sup-sum"):
            assert corollary_tests(cusum, variant).d == 1

    def test_outcome_carries_diagnostics(self, law20k):
        sample = generate_bm_sample(40, 120, seed=14)
        outcome = cvm2d_test(*sample_cusum(sample, 3), law20k)
        assert 0.0 <= outcome.p_value <= 1.0
        assert outcome.d == 3
        assert len(outcome.diagnostics["eigenvalues"]) == 3
        assert not outcome.diagnostics["truncated"]


class TestCorollaryStatistics:
    def test_loop_reference(self):
        cusum = bm_cusum(n=50, grid_size=90, d=6, seed=15)
        v = _bridge_squares(np.asarray(cusum.values))
        n = v.shape[1] - 1
        d = 6
        per_comp_sup = sum(v[j].max() for j in range(d))
        mu0, sigma0 = kolmogorov_moments(BETA / math.sqrt(n))
        expected = (per_comp_sup - d * mu0) / (math.sqrt(d) * sigma0)
        got = _corollary_statistic("sup-bridge", v, d)
        assert got == pytest.approx(expected, rel=1e-9)

        per_comp_int = sum(v[j, :-1].sum() / n for j in range(d))
        expected = (per_comp_int - d / 6.0) / math.sqrt(d / 45.0)
        assert _corollary_statistic("cvm-sum", v, d) == pytest.approx(expected, rel=1e-12)

        peak = max(v[:d, k].sum() for k in range(n + 1))
        expected = (peak - d / 4.0) / math.sqrt(d / 8.0)
        assert _corollary_statistic("sup-sum", v, d) == pytest.approx(expected, rel=1e-12)

    def test_centered_integral_gives_zero_statistic(self):
        # One cusum row whose bridge integral is exactly its null mean 1/6:
        # S = (0, c, 0, ..., 0) has integral c^2/N^2, so c = N/sqrt(6).
        n = 6
        c = n / math.sqrt(6.0)
        values = np.zeros((2, n + 1))
        values[:, 1] = c
        outcome = corollary_tests(CusumMatrix(values), "cvm-sum")
        assert abs(outcome.statistic) < 1e-9
        assert outcome.p_value == pytest.approx(0.5, abs=1e-9)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            corollary_tests(bm_cusum(seed=16), "no-such-variant")

    def test_one_sided_p_value(self):
        outcome = corollary_tests(bm_cusum(seed=17), "sup-bridge")
        from scipy.stats import norm

        assert outcome.p_value == pytest.approx(norm.sf(outcome.statistic), rel=1e-12)


class TestEstimateChangepoint:
    def test_matches_loop_reference(self):
        cusum = bm_cusum(n=30, grid_size=70, d=4, seed=18)
        curve = _estimator_curve(_braces(np.asarray(cusum.values)))
        ref = reference_estimator_curve(np.asarray(cusum.values))
        assert np.allclose(curve, ref, rtol=1e-9, atol=1e-12)
        assert estimate_changepoint(cusum) == int(np.argmax(ref)) + 1

    def test_exact_tie_returns_smallest_index(self):
        # S rows (0, 2, 0, -2, 0): the aggregated curve is bitwise equal at
        # positions 1 and 3 and maximal there.
        values = np.array([[0.0, 2.0, 0.0, -2.0, 0.0], [0.0, 2.0, 0.0, -2.0, 0.0]])
        curve = _estimator_curve(_braces(values))
        assert curve[0] == curve[2] > curve[1]
        assert estimate_changepoint(CusumMatrix(values)) == 1

    def test_final_position_contributes_zero(self):
        curve = _estimator_curve(_braces(np.asarray(bm_cusum(seed=19).values)))
        assert curve[-1] == 0.0

    def test_needs_two_components(self):
        with pytest.raises(
            ConfigurationError, match=r"change-point estimation needs d >= 2, got 1"
        ):
            estimate_changepoint(bm_cusum(d=1, seed=20))

    def test_locates_strong_shift(self):
        sample = inject_shift(generate_bm_sample(60, 200, seed=21), 3.0, 30)
        eig = sample_eigensystem(sample, 4)
        theta = estimate_changepoint(cusum_matrix(compute_scores(sample, eig, 4)))
        assert abs(theta - 30) <= 3


class TestBinarySegmentation:
    def test_recovers_all_injected_changes_for_many_d(self, law20k):
        sample = multi_change_sample()
        for d in range(3, 11):
            tree = binary_segmentation(sample, (d,), alpha=0.01, law=law20k)
            assert tree.change_points() == list(MULTI_CHANGE_AFTER), f"d={d}"

    def test_tree_structure_invariants(self, law20k):
        tree = binary_segmentation(multi_change_sample(), (3, 5), alpha=0.01, law=law20k)
        for node in tree.nodes():
            if node.children:
                a, b = node.children
                assert node.status == "rejected"
                assert (a.lo, b.hi) == (node.lo, node.hi)
                assert a.hi + 1 == b.lo == node.change_after + 1
            else:
                assert node.status in ("retained", "too-short", "degenerate")
        rows = tree.rows()
        assert [r["iteration"] for r in rows] == list(range(1, len(rows) + 1))
        assert {r["status"] for r in rows} >= {"rejected"}
        import json

        assert json.loads(json.dumps(tree.to_dict()))["change_points"] == list(
            MULTI_CHANGE_AFTER
        )

    def test_short_segments_skip_unsupported_d(self, law20k):
        # The 7-curve segment between the two close changes is below
        # min_segment, so it becomes an untested leaf.
        tree = binary_segmentation(multi_change_sample(), (5,), alpha=0.01, law=law20k)
        short = [n for n in tree.nodes() if n.length < 8]
        assert short and all(n.status == "too-short" for n in short)
        assert all(n.p_values == {} for n in short)

    def test_null_sample_is_single_leaf(self, law20k):
        sample = generate_bm_sample(200, 300, seed=22)
        tree = binary_segmentation(sample, (5,), alpha=0.05, law=law20k)
        assert len(tree.nodes()) == 1
        assert tree.root.status == "retained"
        assert tree.change_points() == []

    def test_identical_curves_are_degenerate(self, law20k):
        grid = Grid.uniform(51)
        sample = FunctionalSample(grid, np.tile(np.sin(3.0 * grid.points), (20, 1)))
        tree = binary_segmentation(sample, (3,), alpha=0.05, law=law20k)
        assert tree.root.status == "degenerate" and tree.root.p_values == {}
        assert tree.nodes() == [tree.root]

    @staticmethod
    def _rank_sample(rank, n=40, seed=24):
        grid = Grid.uniform(61)
        basis = np.vstack([np.sin((j + 1) * np.pi * grid.points) for j in range(rank)])
        coef = np.random.default_rng(seed).standard_normal((n, rank))
        return FunctionalSample(grid, coef @ basis)

    def test_rank_limits_the_tested_d(self, law20k):
        sample = self._rank_sample(3)
        tree = binary_segmentation(sample, (2, 5), alpha=0.05, law=law20k)
        assert tree.root.status in ("retained", "rejected")
        assert set(tree.root.p_values) == {2}

    def test_rank_below_every_d_is_degenerate(self, law20k):
        tree = binary_segmentation(self._rank_sample(1), (2, 3), alpha=0.05, law=law20k)
        assert tree.root.status == "degenerate" and tree.root.p_values == {}

    def test_one_p_value_call_per_node_gives_the_scalar_calls(self, law20k):
        calls = []

        class Recording(LimitLaw):
            def p_value(self, statistic):
                calls.append(np.array(statistic, dtype=float))
                return super().p_value(statistic)

        law = Recording(law20k.truncation, law20k.samples, law20k.seed)
        tree = binary_segmentation(multi_change_sample(), (3, 5, 7), alpha=0.01, law=law)
        # Nodes are examined in preorder, each tested one with a single call.
        tested = [node for node in tree.nodes() if node.p_values]
        assert len(tested) == len(calls) > 1
        assert any(len(node.p_values) > 1 for node in tested)
        for node, stats in zip(tested, calls):
            assert stats.shape == (len(node.p_values),)
            scalar = [law20k.p_value(float(s)) for s in stats]
            assert list(node.p_values.values()) == scalar
            assert all(type(p) is float for p in node.p_values.values())

    def test_validation(self, law20k):
        sample = generate_bm_sample(20, 50, seed=23)
        with pytest.raises(ConfigurationError):
            binary_segmentation(sample, (), 0.05, law20k)
        with pytest.raises(ConfigurationError):
            binary_segmentation(sample, (1, 3), 0.05, law20k)
        with pytest.raises(ConfigurationError):
            binary_segmentation(sample, (3,), 1.5, law20k)
        with pytest.raises(ConfigurationError):
            binary_segmentation(sample, (3,), 0.05, law20k, min_segment=4)


class TestSegmentationRates:
    """Monte Carlo behavior of the recursive search; moderately slow."""

    def test_null_single_leaf_rate(self, law20k):
        hits = 0
        for r in range(500):
            sample = generate_bm_sample(200, 120, seed=10_000 + r)
            tree = binary_segmentation(sample, (5,), alpha=0.05, law=law20k)
            hits += len(tree.nodes()) == 1
        assert 0.90 < hits / 500 < 0.99

    def test_two_opposite_shifts_recovered(self, law20k):
        # Measured hit rate for this construction is 0.95 over these 100
        # frozen seeds; alpha = 0.01 keeps the family-wise false-split rate
        # across the recursive tests near 5%.
        t = None
        hits = 0
        runs = 100
        for r in range(runs):
            sample = generate_bm_sample(300, 120, seed=20_000 + r)
            if t is None:
                t = sample.grid.points
            bump = 3.0 * t * (1.0 - t)
            values = sample.values.copy()
            values[100:200] += bump  # up after row 99, back down after row 199
            shifted = FunctionalSample(sample.grid, values)
            tree = binary_segmentation(shifted, (5,), alpha=0.01, law=law20k)
            cps = tree.change_points()
            hits += (
                len(cps) == 2 and abs(cps[0] - 99) <= 10 and abs(cps[1] - 199) <= 10
            )
        assert hits / runs >= 0.85


def _null_statistic_batch(start: int, stop: int) -> np.ndarray:
    """cvm2d statistics at d = 5 for null replicates of 200 Brownian curves."""
    grid = Grid.uniform(1001)
    out = np.empty(stop - start)
    for i, r in enumerate(range(start, stop)):
        rng = replicate_rng(0, r)
        sample = FunctionalSample(grid, _bm_values(rng, 200, 1000))
        eig = sample_eigensystem(sample, 5)
        cusum = cusum_matrix(compute_scores(sample, eig, 5))
        out[i] = _cvm_stats_by_prefix(_braces(cusum.values))[4]
    return out


class TestStatisticNullMean:
    def test_within_twenty_percent_of_limit_mean(self):
        # The limiting distribution has mean 1/30. At N = 200, d = 5 the
        # finite-sample statistic is biased low; the measured ratio over
        # these 1000 frozen replicates is 0.801, just inside the 20% band.
        stats = _null_statistic_batch(0, 1000)
        ratio = float(stats.mean()) * 30.0
        assert 0.80 <= ratio <= 1.20
