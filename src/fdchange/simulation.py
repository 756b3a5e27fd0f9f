"""Size/power experiments under the Brownian-motion protocol.

Null curves are standard Brownian motions on a uniform grid (cumulative sums
of independent normal increments); the alternative adds the smooth bump
``a t (1 - t)`` to every curve after an injection point (or to all curves of
the second sample in the two-sample design). Each replicate draws from its
own ``(seed, r)`` stream, and all requested d and alpha values are evaluated
on the same replicate (common random numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr

from ._parallel import run_replicates
from ._rng import replicate_rng
from .changepoint import (
    _braces,
    _bridge_squares,
    _corollary_statistic,
    _cvm_stats_by_prefix,
    sample_cusum,
)
from .curves import FunctionalSample, Grid
from .errors import ConfigurationError
from .limitdist import LimitLaw
from .twosample import _checked_pooled_eigensystem, _projected_statistic

__all__ = [
    "SimScenario",
    "SimReport",
    "generate_bm_sample",
    "inject_shift",
    "run_size_power",
    "confidence_band",
]

#: Normal-quantile multiplier for the 90% Monte Carlo bands reported alongside
#: every rejection fraction.
BAND_MULTIPLIER = 1.654

CHANGEPOINT_TESTS = ("cvm2d", "sup-bridge", "cvm-sum", "sup-sum")


@dataclass(frozen=True)
class SimScenario:
    """One experiment: sample sizes, shift, dimensions, levels, replication."""

    n: int
    m: int | None = None
    grid_size: int = 1000
    a: float = 0.0
    k_star: int | None = None
    d_list: tuple[int, ...] = (5,)
    alpha_list: tuple[float, ...] = (0.05,)
    reps: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_list", tuple(int(d) for d in self.d_list))
        object.__setattr__(self, "alpha_list", tuple(float(a) for a in self.alpha_list))
        if self.n < 2:
            raise ConfigurationError(f"n must be >= 2, got {self.n}")
        if self.m is not None and self.m < 2:
            raise ConfigurationError(f"m must be >= 2, got {self.m}")
        if self.grid_size < 2:
            raise ConfigurationError(f"grid_size must be >= 2, got {self.grid_size}")
        if self.reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {self.reps}")
        if not self.d_list or min(self.d_list) < 1:
            raise ConfigurationError("d_list must contain positive dimensions")
        if not self.alpha_list or not all(0.0 < a <= 1.0 for a in self.alpha_list):
            raise ConfigurationError("alpha_list entries must lie in (0, 1]")
        if self.k_star is not None and not 1 <= self.k_star < self.n:
            raise ConfigurationError(
                f"k_star must satisfy 1 <= k_star < n, got {self.k_star}"
            )


def generate_bm_sample(
    n: int, grid_size: int, seed: int | np.random.Generator
) -> FunctionalSample:
    """N Brownian motions on grid_size+1 uniform points, starting at 0."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    grid = Grid.uniform(grid_size + 1)
    return FunctionalSample(grid, _bm_values(rng, n, grid_size))


def _bm_values(rng: np.random.Generator, n: int, grid_size: int) -> np.ndarray:
    increments = rng.standard_normal((n, grid_size)) / np.sqrt(grid_size)
    values = np.empty((n, grid_size + 1))
    values[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=values[:, 1:])
    return values


def inject_shift(
    sample: FunctionalSample, a: float, k_star: int | str
) -> FunctionalSample:
    """Add a * t(1-t) to curves after position ``k_star`` ("all" shifts every curve)."""
    n = sample.n_curves
    if k_star == "all":
        start = 0
    else:
        if not 0 <= int(k_star) < n:
            raise ConfigurationError(f"k_star must be in 0..{n - 1} or 'all', got {k_star}")
        start = int(k_star)
    t = sample.grid.points
    values = sample.values.copy()
    values[start:] += a * t * (1.0 - t)
    return FunctionalSample(sample.grid, values)


@dataclass(frozen=True)
class SimReport:
    """Rejection fractions with 90% Monte Carlo bands, one row per (d, alpha)."""

    scenario: SimScenario
    test: str
    rows: tuple[dict, ...]

    def p_hat(self, d: int, alpha: float) -> float:
        for row in self.rows:
            if row["d"] == d and row["alpha"] == alpha:
                return row["p_hat"]
        raise KeyError(f"no row for d={d}, alpha={alpha}")

    def band(self, d: int, alpha: float) -> tuple[float, float]:
        for row in self.rows:
            if row["d"] == d and row["alpha"] == alpha:
                return row["band_lo"], row["band_hi"]
        raise KeyError(f"no row for d={d}, alpha={alpha}")


def confidence_band(p_hat: float, reps: int) -> tuple[float, float]:
    """90% Monte Carlo band around an estimated rejection probability."""
    half = BAND_MULTIPLIER * np.sqrt(p_hat * (1.0 - p_hat) / reps)
    return max(0.0, p_hat - half), min(1.0, p_hat + half)


def _changepoint_chunk(scenario: SimScenario, test: str, start: int, stop: int) -> np.ndarray:
    grid = Grid.uniform(scenario.grid_size + 1)
    d_max = max(scenario.d_list)
    t = grid.points
    bump = scenario.a * t * (1.0 - t)
    out = np.empty((stop - start, len(scenario.d_list)))
    for r in range(start, stop):
        rng = replicate_rng(scenario.seed, r)
        values = _bm_values(rng, scenario.n, scenario.grid_size)
        if scenario.a != 0.0 and scenario.k_star is not None:
            values[scenario.k_star :] += bump
        _, cusum = sample_cusum(FunctionalSample(grid, values), d_max)
        if test == "cvm2d":
            stats = _cvm_stats_by_prefix(_braces(cusum.values))
            out[r - start] = stats[[d - 1 for d in scenario.d_list]]
        else:
            bridge_sq = _bridge_squares(cusum.values)
            for j, d in enumerate(scenario.d_list):
                out[r - start, j] = _corollary_statistic(test, bridge_sq, d)
    return out


def _twosample_chunk(scenario: SimScenario, start: int, stop: int) -> np.ndarray:
    grid = Grid.uniform(scenario.grid_size + 1)
    d_max = max(scenario.d_list)
    t = grid.points
    bump = scenario.a * t * (1.0 - t)
    m = scenario.m if scenario.m is not None else scenario.n
    out = np.empty((stop - start, len(scenario.d_list)))
    for r in range(start, stop):
        rng = replicate_rng(scenario.seed, r)
        x_values = _bm_values(rng, scenario.n, scenario.grid_size)
        y_values = _bm_values(rng, m, scenario.grid_size)
        if scenario.a != 0.0:
            y_values += bump
        x = FunctionalSample(grid, x_values)
        y = FunctionalSample(grid, y_values)
        eig = _checked_pooled_eigensystem(x, y, d_max).eigen
        for j, d in enumerate(scenario.d_list):
            out[r - start, j] = _projected_statistic(x, y, eig, d)[1]
    return out


def run_size_power(
    scenario: SimScenario,
    test: str = "cvm2d",
    law: LimitLaw | None = None,
    workers: int = 1,
) -> SimReport:
    """Estimate rejection probabilities for every (d, alpha) of the scenario.

    ``law`` is required for the cvm2d test (simulate it once and reuse it);
    the normal-limit tests, ``sup-bridge`` included, need nothing drawn
    beyond the replicates. Statistics are computed once per replicate and
    thresholded at every alpha.
    """
    if test == "two-sample":
        stats = run_replicates(
            partial(_twosample_chunk, scenario), scenario.reps, workers
        )
        p_values = ndtr(-stats)
    elif test in CHANGEPOINT_TESTS:
        if test == "cvm2d" and law is None:
            raise ConfigurationError("cvm2d needs a simulated LimitLaw")
        stats = run_replicates(
            partial(_changepoint_chunk, scenario, test), scenario.reps, workers
        )
        p_values = law.p_value(stats) if test == "cvm2d" else ndtr(-stats)
    else:
        raise ConfigurationError(f"unknown test {test!r}")

    rows = []
    for j, d in enumerate(scenario.d_list):
        for alpha in scenario.alpha_list:
            p_hat = float(np.mean(p_values[:, j] < alpha))
            lo, hi = confidence_band(p_hat, scenario.reps)
            rows.append(
                {
                    "n": scenario.n,
                    "m": scenario.m,
                    "d": d,
                    "alpha": alpha,
                    "a": scenario.a,
                    "k_star": scenario.k_star,
                    "p_hat": p_hat,
                    "band_lo": lo,
                    "band_hi": hi,
                    "reps": scenario.reps,
                    "seed": scenario.seed,
                }
            )
    return SimReport(scenario=scenario, test=test, rows=tuple(rows))
