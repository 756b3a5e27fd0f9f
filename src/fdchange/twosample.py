"""Two-sample mean comparison in a growing number of pooled components.

The pooled covariance ``c_N + (N/M) c*_M`` supplies directions and scales;
the statistic sums squared normalized projections of the mean difference and
is compared to its normal limit after centering by d and scaling by sqrt(2d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .curves import (
    CovarianceSurface,
    FunctionalSample,
    require_same_grid,
)
from .errors import ConfigurationError, DegenerateDataError, DimensionError
from .fpca import EigenSystem, _gram_eigensystem, eigendecompose

__all__ = [
    "PooledEigen",
    "TwoSampleOutcome",
    "pooled_covariance",
    "pooled_eigensystem",
    "two_sample_test",
]


@dataclass(frozen=True, eq=False)
class PooledEigen:
    """Eigensystem of the pooled covariance plus the sample-size ratio N/M."""

    eigen: EigenSystem
    ratio: float

    def __post_init__(self) -> None:
        if not self.ratio > 0:
            raise ValueError(f"sample-size ratio must be positive, got {self.ratio}")


@dataclass(frozen=True)
class TwoSampleOutcome:
    """Result of the projected mean-difference test."""

    statistic: float  # the quadratic form D
    z_score: float
    p_value: float
    d: int
    diagnostics: dict

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


def pooled_covariance(x: FunctionalSample, y: FunctionalSample) -> CovarianceSurface:
    """c_N + (N/M) c*_M on the shared grid."""
    require_same_grid(x.grid, y.grid, "pooled_covariance")
    from .curves import _finite_covariance, empirical_covariance

    cx = empirical_covariance(x).values
    cy = empirical_covariance(y).values
    ratio = x.n_curves / y.n_curves
    return CovarianceSurface(x.grid, _finite_covariance(cx + ratio * cy))


def pooled_eigensystem(
    x: FunctionalSample, y: FunctionalSample, d_max: int
) -> PooledEigen:
    """Leading pooled components, via an (N+M) Gram solve when that is smaller."""
    require_same_grid(x.grid, y.grid, "pooled_eigensystem")
    if d_max < 1:
        raise ConfigurationError(f"d_max must be >= 1, got {d_max}")
    n, m = x.n_curves, y.n_curves
    t = x.grid.size
    ratio = n / m
    if n + m > t:
        eig = eigendecompose(pooled_covariance(x, y), d_max)
        return PooledEigen(eig, ratio)
    w_half = np.sqrt(x.grid.weights)
    xc = (x.values - x.values.mean(axis=0)) * w_half[None, :]
    yc = (y.values - y.values.mean(axis=0)) * w_half[None, :]
    stacked = np.vstack([xc / np.sqrt(n), yc * (np.sqrt(n) / m)])
    return PooledEigen(_gram_eigensystem(x.grid, stacked, 1, d_max), ratio)


def _checked_pooled_eigensystem(
    x: FunctionalSample, y: FunctionalSample, d: int
) -> PooledEigen:
    """Pooled components with at least ``d`` retained, or the matching error."""
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")
    pooled = pooled_eigensystem(x, y, d)
    eig = pooled.eigen
    if eig.d == 0:
        raise DegenerateDataError(
            "degenerate pooled covariance: no components above the eigenvalue floor"
        )
    if eig.d < d:
        raise DimensionError(
            f"requested d={d} but only {eig.d} pooled components are available"
        )
    return pooled


def _projected_statistic(
    x: FunctionalSample, y: FunctionalSample, eig: EigenSystem, d: int
) -> tuple[float, float]:
    """The quadratic form D = N sum_{j<=d} proj_j^2 / lambda_j and its z-score."""
    delta = x.values.mean(axis=0) - y.values.mean(axis=0)
    proj = eig.functions[:d] @ (x.grid.weights * delta)
    statistic = float(x.n_curves * np.sum(proj**2 / eig.eigenvalues[:d]))
    return statistic, float((statistic - d) / np.sqrt(2.0 * d))


def two_sample_test(
    x: FunctionalSample, y: FunctionalSample, d: int
) -> TwoSampleOutcome:
    """Compare sample means in the leading d pooled components."""
    pooled = _checked_pooled_eigensystem(x, y, d)
    eig = pooled.eigen
    statistic, z = _projected_statistic(x, y, eig, d)
    return TwoSampleOutcome(
        statistic=statistic,
        z_score=z,
        p_value=float(ndtr(-z)),
        d=d,
        diagnostics={
            "eigenvalues": eig.eigenvalues[:d].copy(),
            "spacings": eig.spacings[:d].copy(),
            "ratio": pooled.ratio,
        },
    )
