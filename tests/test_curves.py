"""Grids, the quadrature inner product and samples."""

import numpy as np
import pytest

from fdchange.curves import FunctionalSample, Grid, require_same_grid, trapezoid_weights
from fdchange.errors import GridMismatchError, InsufficientSampleError
from fdchange.simulation import generate_bm_sample


def inner_product(grid, f, g):
    """The L2([0, 1]) inner product under the grid's quadrature weights."""
    return float(grid.weights @ (f * g))


def uniform_curve(fn, size=1001):
    grid = Grid.uniform(size)
    return grid, fn(grid.points)


class TestGrid:
    def test_weights_integrate_one(self):
        for size in (2, 3, 10, 365, 1001):
            g = Grid.uniform(size)
            assert abs(g.weights.sum() - 1.0) <= 1e-12
            assert np.all(g.weights > 0)

    def test_trapezoid_weights_match_integral_rule(self):
        # Integrating f against the weights must equal the trapezoid rule.
        pts = np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(3).uniform(0, 1, 30)]))
        w = trapezoid_weights(pts)
        f = np.sin(3.0 * pts) + pts**2
        assert np.trapezoid(f, pts) == pytest.approx(float(w @ f), rel=1e-14)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="1-d array of at least 2 points"):
            Grid(np.array([[0.0, 1.0], [0.0, 1.0]]))  # not 1-d
        with pytest.raises(ValueError, match="1-d array of at least 2 points"):
            Grid(np.array([0.5]))  # one point
        with pytest.raises(ValueError, match="finite"):
            Grid(np.array([0.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            Grid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            Grid(np.array([0.0, 0.6, 0.4, 1.0]))
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            Grid(np.array([-0.1, 1.0]))  # below 0
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            Grid(np.array([0.0, 1.1]))  # above 1
        with pytest.raises(ValueError, match="integrate the constant 1"):
            Grid(np.array([0.0, 0.5, 0.9]))  # inside [0, 1] but not spanning it

    def test_weights_are_the_trapezoid_rule_of_the_points(self):
        pts = np.array([0.0, 0.1, 0.35, 0.8, 1.0])
        grid = Grid(pts)
        assert grid.weights.tobytes() == trapezoid_weights(pts).tobytes()
        assert not grid.weights.flags.writeable
        with pytest.raises(TypeError):
            Grid(pts, trapezoid_weights(pts))  # weights are derived, not given

    def test_grid_equality_tolerance(self):
        a = Grid.uniform(101)
        b = Grid(np.clip(a.points + 1e-15, 0.0, 1.0))
        assert a.matches(b)
        c = Grid.uniform(102)
        assert not a.matches(c)


class TestInnerProduct:
    def test_constant_one_integrates_to_one(self):
        grid, f = uniform_curve(lambda t: np.ones_like(t), size=7)
        assert inner_product(grid, f, f) == pytest.approx(1.0, abs=1e-12)

    def test_t_squared_integral(self):
        grid, f = uniform_curve(lambda t: t)
        assert inner_product(grid, f, f) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_sine_cosine_orthogonal(self):
        grid, s = uniform_curve(lambda t: np.sin(2 * np.pi * t))
        _, c = uniform_curve(lambda t: np.cos(2 * np.pi * t))
        assert inner_product(grid, s, c) == pytest.approx(0.0, abs=1e-3)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(11)
        grid = Grid.uniform(51)
        f, g = rng.standard_normal((2, 51))
        assert inner_product(grid, f, g) == inner_product(grid, g, f)
        assert inner_product(grid, f, f) >= 0.0

    def test_mismatched_grids_raise(self):
        with pytest.raises(GridMismatchError):
            require_same_grid(Grid.uniform(11), Grid.uniform(12), "inner product")


class TestSampleMean:
    def test_brownian_mean_is_small(self):
        # The mean of 1000 standard Brownian motions has variance t/1000, so
        # its sup stays below 0.15 except on a <1% event; frozen seed.
        sample = generate_bm_sample(1000, 200, seed=314)
        assert np.max(np.abs(sample.values.mean(axis=0))) < 0.15


class TestFunctionalSample:
    def test_insufficient_sample_raises(self):
        with pytest.raises(InsufficientSampleError):
            FunctionalSample(Grid.uniform(5), np.zeros((1, 5)))
