"""Brownian-motion generator, shift injection, and the size/power harness."""

from dataclasses import replace

import numpy as np
import pytest

from fdchange._rng import replicate_rng
from fdchange.changepoint import cvm2d_test, sample_cusum
from fdchange.curves import FunctionalSample, Grid
from fdchange.errors import ConfigurationError
from fdchange.simulation import (
    BAND_MULTIPLIER,
    SimScenario,
    confidence_band,
    generate_bm_sample,
    inject_shift,
    run_size_power,
)
from fdchange.twosample import two_sample_test


class TestBrownianGenerator:
    def test_starts_at_zero_on_the_right_grid(self):
        sample = generate_bm_sample(7, 50, seed=0)
        assert sample.grid.size == 51
        assert np.all(sample.values[:, 0] == 0.0)

    def test_endpoint_variance_is_one(self):
        sample = generate_bm_sample(10_000, 100, seed=1)
        assert np.var(sample.values[:, -1]) == pytest.approx(1.0, abs=0.06)

    def test_covariance_is_min_of_times(self):
        sample = generate_bm_sample(5000, 200, seed=2)
        at_half = sample.values[:, 100]
        at_three_quarters = sample.values[:, 150]
        cov = np.mean(at_half * at_three_quarters)
        assert cov == pytest.approx(0.5, abs=0.05)

    def test_generator_state_advances(self):
        rng = np.random.default_rng(3)
        first = generate_bm_sample(5, 20, seed=rng)
        second = generate_bm_sample(5, 20, seed=rng)
        assert not np.array_equal(first.values, second.values)


class TestInjectShift:
    def test_exact_bump_after_position(self):
        grid = Grid.uniform(41)
        base = FunctionalSample(grid, np.zeros((10, 41)))
        shifted = inject_shift(base, 2.0, 3)
        t = grid.points
        assert np.all(shifted.values[:3] == 0.0)
        assert np.allclose(shifted.values[3:], 2.0 * t * (1.0 - t), atol=1e-15)

    def test_all_shifts_every_curve(self):
        base = generate_bm_sample(6, 30, seed=4)
        shifted = inject_shift(base, 1.5, "all")
        t = base.grid.points
        assert np.allclose(shifted.values - base.values, 1.5 * t * (1.0 - t), atol=1e-12)

    def test_input_untouched(self):
        base = generate_bm_sample(4, 20, seed=5)
        before = base.values.copy()
        inject_shift(base, 3.0, 2)
        assert np.array_equal(base.values, before)

    def test_position_out_of_range(self):
        base = generate_bm_sample(4, 20, seed=6)
        with pytest.raises(ConfigurationError):
            inject_shift(base, 1.0, 4)
        with pytest.raises(ConfigurationError):
            inject_shift(base, 1.0, -1)


#: How ``_check_design`` refuses the ``k_star`` of a null change-point scenario.
NULL_K_STAR = r"k_star is a change point; a null scenario \(a = 0\) has none"


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"n": 100, "m": 1},
            {"n": 100, "grid_size": 1},
            {"n": 100, "reps": 0},
            {"n": 100, "d_list": ()},
            {"n": 100, "d_list": (0,)},
            {"n": 100, "alpha_list": (0.0,)},
            {"n": 100, "alpha_list": (1.2,)},
            {"n": 100, "d_list": (3, 3)},
            {"n": 100, "d_list": (3, 5, 3)},
            {"n": 100, "alpha_list": (0.05, 0.05)},
            {"n": 100, "k_star": 0},
            {"n": 100, "k_star": 100},
            {"n": 100, "a": float("nan")},
            {"n": 100, "a": float("inf")},
        ],
    )
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimScenario(**kwargs)

    def test_degenerate_alpha_one_is_allowed(self):
        scenario = SimScenario(n=10, alpha_list=(1.0,))
        assert scenario.alpha_list == (1.0,)

    def test_boundary_k_star(self):
        assert SimScenario(n=100, k_star=99).k_star == 99
        assert SimScenario(n=100, k_star=1).k_star == 1


class TestConfidenceBand:
    def test_formula(self):
        lo, hi = confidence_band(0.5, 1000)
        half = BAND_MULTIPLIER * np.sqrt(0.25 / 1000)
        assert lo == pytest.approx(0.5 - half, rel=1e-12)
        assert hi == pytest.approx(0.5 + half, rel=1e-12)

    def test_clipping(self):
        lo, _ = confidence_band(0.01, 100)
        assert lo == 0.0
        lo, hi = confidence_band(1.0, 50)
        assert (lo, hi) == (1.0, 1.0)
        lo, hi = confidence_band(0.0, 50)
        assert (lo, hi) == (0.0, 0.0)


class TestRunSizePower:
    def test_rows_carry_scenario_metadata(self, law20k):
        scenario = SimScenario(
            n=30, grid_size=60, d_list=(3, 5), alpha_list=(0.05, 0.10), reps=40, seed=9
        )
        report = run_size_power(scenario, "cvm2d", law=law20k)
        assert len(report.rows) == 4
        for row in report.rows:
            assert row["N"] == 30 and row["R"] == 40 and row["seed"] == 9
            assert (row["band_lo"], row["band_hi"]) == confidence_band(row["p_hat"], 40)
        with pytest.raises(KeyError):
            report.p_hat(4, 0.05)

    def test_degenerate_alpha_rejects_always(self, law20k):
        scenario = SimScenario(n=50, grid_size=100, alpha_list=(1.0,), reps=50, seed=10)
        assert run_size_power(scenario, "cvm2d", law=law20k).p_hat(5, 1.0) == 1.0
        two = SimScenario(n=30, m=30, grid_size=60, alpha_list=(1.0,), reps=50, seed=11)
        assert run_size_power(two, "two-sample").p_hat(5, 1.0) == 1.0

    def test_reproducible(self, law20k):
        scenario = SimScenario(n=40, grid_size=80, d_list=(3,), reps=60, seed=12)
        a = run_size_power(scenario, "cvm2d", law=law20k)
        b = run_size_power(scenario, "cvm2d", law=law20k)
        assert a.rows == b.rows

    def test_replicates_match_public_test_function(self, law20k):
        # The harness must evaluate exactly the statistic the public API
        # computes, on exactly the documented per-replicate streams.
        scenario = SimScenario(n=40, grid_size=80, d_list=(3, 5), reps=12, seed=77)
        report = run_size_power(scenario, "cvm2d", law=law20k)
        grid = Grid.uniform(81)
        rejections = {3: 0, 5: 0}
        for r in range(12):
            rng = replicate_rng(77, r)
            increments = rng.standard_normal((40, 80)) / np.sqrt(80)
            values = np.hstack([np.zeros((40, 1)), np.cumsum(increments, axis=1)])
            sample = FunctionalSample(grid, values)
            for d in (3, 5):
                if cvm2d_test(*sample_cusum(sample, d), law20k).p_value < 0.05:
                    rejections[d] += 1
        assert report.p_hat(3, 0.05) == rejections[3] / 12
        assert report.p_hat(5, 0.05) == rejections[5] / 12

    @pytest.mark.parametrize(
        "n, m, grid_size",
        [(20, 25, 80), (40, 30, 50)],  # N + M <= T: the Gram side; N + M > T: the T x T side
    )
    def test_two_sample_replicates_match_public_test_function(self, n, m, grid_size):
        scenario = SimScenario(
            n=n, m=m, grid_size=grid_size, a=0.8, d_list=(2, 4),
            alpha_list=(0.05, 0.2), reps=12, seed=78,
        )
        report = run_size_power(scenario, "two-sample")
        grid = Grid.uniform(grid_size + 1)
        bump = 0.8 * grid.points * (1.0 - grid.points)

        def brownian(rng, count):
            increments = rng.standard_normal((count, grid_size)) / np.sqrt(grid_size)
            return np.hstack([np.zeros((count, 1)), np.cumsum(increments, axis=1)])

        rejections = {(d, a): 0 for d in (2, 4) for a in (0.05, 0.2)}
        for r in range(12):
            rng = replicate_rng(78, r)
            x = FunctionalSample(grid, brownian(rng, n))
            y = FunctionalSample(grid, brownian(rng, m) + bump)
            for d in (2, 4):
                p = two_sample_test(x, y, d).p_value
                for a in (0.05, 0.2):
                    rejections[d, a] += p < a
        assert 0 < sum(rejections.values()) < 48
        for (d, a), count in rejections.items():
            assert report.p_hat(d, a) == count / 12

    def test_power_increases_with_shift_size(self, law20k):
        common = dict(n=60, grid_size=100, k_star=30, d_list=(5,), reps=200, seed=13)
        weak = run_size_power(SimScenario(a=0.5, **common), "cvm2d", law=law20k)
        strong = run_size_power(SimScenario(a=3.0, **common), "cvm2d", law=law20k)
        assert strong.p_hat(5, 0.05) > weak.p_hat(5, 0.05) + 0.2
        assert strong.p_hat(5, 0.05) > 0.9

    @pytest.mark.parametrize("test", ["cvm-sum", "cvm2d"])
    def test_shift_without_k_star_starts_at_the_midpoint(self, law20k, test):
        scenario = SimScenario(n=40, grid_size=60, a=50.0, d_list=(3,), reps=30, seed=1)
        law = law20k if test == "cvm2d" else None
        report = run_size_power(scenario, test, law=law)
        midpoint = run_size_power(replace(scenario, k_star=20), test, law=law)
        assert report.scenario.k_star == 20
        assert report.rows == midpoint.rows
        assert report.p_hat(3, 0.05) == 1.0  # the power, not the size

    def test_two_sample_shift_needs_no_k_star(self):
        scenario = SimScenario(n=20, grid_size=40, a=2.0, d_list=(2,), reps=4, seed=3)
        report = run_size_power(scenario, "two-sample")
        assert report.scenario.k_star is None
        assert all(row["k_star"] is None for row in report.rows)

    def test_corollary_variants_run(self):
        scenario = SimScenario(n=80, grid_size=100, d_list=(4,), reps=80, seed=14)
        for variant in ("cvm-sum", "sup-sum", "sup-bridge"):
            report = run_size_power(scenario, variant)
            assert 0.0 <= report.p_hat(4, 0.05) <= 0.5

    def test_cvm2d_needs_every_d_at_least_two(self, law20k):
        scenario = SimScenario(n=20, grid_size=40, d_list=(1, 3), reps=4, seed=16)
        with pytest.raises(ConfigurationError, match=r"cvm2d needs d >= 2, got 1"):
            run_size_power(scenario, "cvm2d", law=law20k)
        assert run_size_power(scenario, "cvm-sum").p_hat(1, 0.05) >= 0.0

    def test_missing_inputs_raise(self):
        scenario = SimScenario(n=20, grid_size=40, reps=4, seed=15)
        with pytest.raises(ConfigurationError):
            run_size_power(scenario, "cvm2d")
        with pytest.raises(ConfigurationError):
            run_size_power(scenario, "nonsense")

    @pytest.mark.parametrize(
        "test, settings, message",
        [
            ("two-sample", {"k_star": 5}, "k_star is a change point; two-sample has none"),
            ("cvm-sum", {"k_star": 5}, NULL_K_STAR),
            ("cvm2d", {"k_star": 5}, NULL_K_STAR),
            ("cvm2d", {"m": 7}, "m is a second-sample size; cvm2d draws one sample"),
            ("sup-sum", {"m": 7}, "m is a second-sample size; sup-sum draws one sample"),
        ],
        ids=["two-sample-k-star", "cvm-sum-null-k-star", "cvm2d-null-k-star", "cvm2d-m",
             "sup-sum-m"],
    )
    def test_settings_the_test_never_reads_are_refused(self, law20k, test, settings, message):
        # The two-sample design shifts the whole second sample, a null
        # change-point scenario (a = 0) injects no shift, and a change-point
        # test draws no second sample: a report must not name a setting that
        # its test never read.
        scenario = SimScenario(n=20, grid_size=40, d_list=(3,), reps=4, seed=15, **settings)
        with pytest.raises(ConfigurationError, match=message):
            run_size_power(scenario, test, law=law20k)
