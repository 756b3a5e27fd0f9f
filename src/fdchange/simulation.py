"""Size/power experiments under the Brownian-motion protocol.

Null curves are standard Brownian motions on a uniform grid (cumulative sums
of independent normal increments); the alternative adds the smooth bump
``a t (1 - t)`` to every curve after an injection point (or to all curves of
the second sample in the two-sample design). Each replicate draws from its
own ``(seed, r)`` stream, and all requested d and alpha values are evaluated
on the same replicate (common random numbers).

One replicate loop, ``_replicate_statistics``, serves every test and owns no
rule of its own: a change-point replicate gets its statistics from
``changepoint._statistics``, and a two-sample replicate checks its pooled
components with ``fpca._require_components``, as the single tests do. The
p-values of every test come from ``changepoint._p_values``, which picks the null.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._rng import replicate_rngs
from .changepoint import CHANGEPOINT_TESTS, _p_values, _require_cvm2d_d, _require_distinct
from .changepoint import _statistics, sample_cusum
from .curves import FunctionalSample, Grid
from .errors import ConfigurationError
from .fpca import _require_components
from .limitdist import LimitLaw
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
        if not np.isfinite(self.a):
            raise ConfigurationError(f"a must be finite, got {self.a}")
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
        _require_distinct(self.d_list, "d_list")
        _require_distinct(self.alpha_list, "alpha_list")
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
    values = sample.values.copy()
    values[start:] += _bump(a, sample.grid.points)
    return FunctionalSample(sample.grid, values)


def _bump(a: float, t: np.ndarray) -> np.ndarray:
    """The alternative's shift a t (1 - t) on the grid points ``t``."""
    return a * t * (1.0 - t)


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


def _replicate_statistics(scenario: SimScenario, test: str) -> np.ndarray:
    """Row i holds the ``test`` statistic at every d of ``scenario.d_list`` on
    replicate i, drawn from its own stream.

    One frame runs every replicate, so each replicate's arrays stay bound
    until the next one's are made. A call per replicate would free them first,
    and glibc's malloc would then hand the heap top back to the system and
    fault it in again each time: 65050 page faults against 1301 for 50
    replicates of 200 curves on 1001 points, about a tenth of the run time.
    """
    grid = Grid.uniform(scenario.grid_size + 1)
    bump = _bump(scenario.a, grid.points)
    d_max = max(scenario.d_list)
    m = scenario.m if scenario.m is not None else scenario.n
    out = np.empty((scenario.reps, len(scenario.d_list)))
    for i, rng in enumerate(replicate_rngs(scenario.seed, 0, scenario.reps)):
        values = _bm_values(rng, scenario.n, scenario.grid_size)
        if test == "two-sample":
            y_values = _bm_values(rng, m, scenario.grid_size)
            if scenario.a != 0.0:
                y_values += bump
            x = FunctionalSample(grid, values)
            y = FunctionalSample(grid, y_values)
            eig = pooled_eigensystem(x, y, d_max)
            _require_components(eig, d_max)
            out[i] = [_projected_statistic(x, y, eig, d)[1] for d in scenario.d_list]
        else:
            if scenario.a != 0.0:  # run_size_power has set k_star
                values[scenario.k_star :] += bump
            _, cusum = sample_cusum(FunctionalSample(grid, values), d_max)
            out[i] = _statistics(cusum.values, test, scenario.d_list)
    return out


def _check_design(scenario: SimScenario, test: str, d_name: str = "d") -> None:
    """Refuse an unknown ``test``, a setting that ``test`` never reads (``m``,
    or ``k_star`` of two-sample or of a null scenario) and, for cvm2d, a d below
    2 (``d_name`` in the error)."""
    if test in CHANGEPOINT_TESTS:
        if scenario.m is not None:
            raise ConfigurationError(f"m is a second-sample size; {test} draws one sample")
        if scenario.k_star is not None and scenario.a == 0.0:
            raise ConfigurationError("k_star is a change point; a null scenario (a = 0) has none")
        if test == "cvm2d":
            _require_cvm2d_d(scenario.d_list, d_name)
    elif test == "two-sample":
        if scenario.k_star is not None:
            raise ConfigurationError("k_star is a change point; two-sample has none")
    else:
        raise ConfigurationError(f"unknown test {test!r}")


def run_size_power(
    scenario: SimScenario,
    test: str = "cvm2d",
    law: LimitLaw | None = None,
) -> SimReport:
    """Estimate rejection probabilities for every (d, alpha) of the scenario.

    ``law`` is required for the cvm2d test (simulate it once and reuse it);
    ``_p_values`` refuses a missing one after the replicates. The normal-limit
    tests need nothing drawn beyond them. ``_check_design`` refuses the
    settings ``test`` cannot use. Statistics are computed once per replicate
    and thresholded at every alpha. A change-point shift (``a != 0``) without
    a ``k_star`` starts after ``n // 2``, which the report's scenario records.
    """
    _check_design(scenario, test)
    if test in CHANGEPOINT_TESTS and scenario.a != 0.0 and scenario.k_star is None:
        scenario = replace(scenario, k_star=scenario.n // 2)
    stats = _replicate_statistics(scenario, test)
    p_values = _p_values(test, stats, law)

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
