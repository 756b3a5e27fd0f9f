"""Size/power experiments under the Brownian-motion protocol.

Null curves are standard Brownian motions on a uniform grid (cumulative sums
of independent normal increments); the alternative adds the smooth bump
``a t (1 - t)`` to every curve after an injection point (or to all curves of
the second sample in the two-sample design). Each replicate draws from its
own ``(seed, r)`` stream, and all requested d and alpha values are evaluated
on the same replicate (common random numbers).

The replicate loops own no rule of their own: a change-point replicate gets
its statistics from ``changepoint._statistics``, and a two-sample replicate
checks its pooled components with ``fpca._require_components``, as the
single tests do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._rng import replicate_rngs
from .changepoint import CHANGEPOINT_TESTS, _require_cvm2d_d, _statistics, sample_cusum
from .curves import FunctionalSample, Grid
from .errors import ConfigurationError
from .fpca import _require_components
from .limitdist import LimitLaw, normal_p_value
from .twosample import _projected_statistic, pooled_eigensystem

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
    """Rejection fractions with 90% Monte Carlo bands, one row per (d, alpha).

    Row columns, as in the ``simulate`` report: N (curves per sample), d,
    alpha, a, k_star, p_hat, band_lo, band_hi, R (replicates) and seed. The
    second-sample size m is on ``scenario``.
    """

    scenario: SimScenario
    test: str
    rows: tuple[dict, ...]

    def p_hat(self, d: int, alpha: float) -> float:
        for row in self.rows:
            if row["d"] == d and row["alpha"] == alpha:
                return row["p_hat"]
        raise KeyError(f"no row for d={d}, alpha={alpha}")


def confidence_band(p_hat: float, reps: int) -> tuple[float, float]:
    """90% Monte Carlo band around an estimated rejection probability."""
    half = BAND_MULTIPLIER * np.sqrt(p_hat * (1.0 - p_hat) / reps)
    return max(0.0, p_hat - half), min(1.0, p_hat + half)


def _changepoint_chunk(scenario: SimScenario, test: str) -> np.ndarray:
    grid = Grid.uniform(scenario.grid_size + 1)
    d_max = max(scenario.d_list)
    t = grid.points
    bump = scenario.a * t * (1.0 - t)
    out = np.empty((scenario.reps, len(scenario.d_list)))
    for i, rng in enumerate(replicate_rngs(scenario.seed, 0, scenario.reps)):
        values = _bm_values(rng, scenario.n, scenario.grid_size)
        if scenario.a != 0.0:  # run_size_power has set k_star
            values[scenario.k_star :] += bump
        _, cusum = sample_cusum(FunctionalSample(grid, values), d_max)
        out[i] = _statistics(cusum.values, test, scenario.d_list)
    return out


def _twosample_chunk(scenario: SimScenario) -> np.ndarray:
    grid = Grid.uniform(scenario.grid_size + 1)
    d_max = max(scenario.d_list)
    t = grid.points
    bump = scenario.a * t * (1.0 - t)
    m = scenario.m if scenario.m is not None else scenario.n
    out = np.empty((scenario.reps, len(scenario.d_list)))
    for i, rng in enumerate(replicate_rngs(scenario.seed, 0, scenario.reps)):
        x_values = _bm_values(rng, scenario.n, scenario.grid_size)
        y_values = _bm_values(rng, m, scenario.grid_size)
        if scenario.a != 0.0:
            y_values += bump
        x = FunctionalSample(grid, x_values)
        y = FunctionalSample(grid, y_values)
        eig = pooled_eigensystem(x, y, d_max)
        _require_components(eig, d_max)
        for j, d in enumerate(scenario.d_list):
            out[i, j] = _projected_statistic(x, y, eig, d)[1]
    return out


def run_size_power(
    scenario: SimScenario,
    test: str = "cvm2d",
    law: LimitLaw | None = None,
) -> SimReport:
    """Estimate rejection probabilities for every (d, alpha) of the scenario.

    ``law`` is required for the cvm2d test (simulate it once and reuse it),
    and so is d >= 2 throughout ``d_list``;
    the normal-limit tests, ``sup-bridge`` included, need nothing drawn
    beyond the replicates. Statistics are computed once per replicate and
    thresholded at every alpha. A change-point shift (``a != 0``) without a
    ``k_star`` starts after ``n // 2``, which the report's scenario records.
    """
    if test == "two-sample":
        stats = _twosample_chunk(scenario)
    elif test in CHANGEPOINT_TESTS:
        if scenario.a != 0.0 and scenario.k_star is None:
            scenario = replace(scenario, k_star=scenario.n // 2)
        if test == "cvm2d":
            if law is None:
                raise ConfigurationError("cvm2d needs a simulated LimitLaw")
            _require_cvm2d_d(scenario.d_list)
        stats = _changepoint_chunk(scenario, test)
    else:
        raise ConfigurationError(f"unknown test {test!r}")
    p_values = law.p_value(stats) if test == "cvm2d" else normal_p_value(stats)

    rows = []
    for j, d in enumerate(scenario.d_list):
        for alpha in scenario.alpha_list:
            p_hat = float(np.mean(p_values[:, j] < alpha))
            lo, hi = confidence_band(p_hat, scenario.reps)
            rows.append(
                {
                    "N": scenario.n,
                    "d": d,
                    "alpha": alpha,
                    "a": scenario.a,
                    "k_star": scenario.k_star,
                    "p_hat": p_hat,
                    "band_lo": lo,
                    "band_hi": hi,
                    "R": scenario.reps,
                    "seed": scenario.seed,
                }
            )
    return SimReport(scenario=scenario, test=test, rows=tuple(rows))
