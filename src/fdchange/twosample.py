"""Two-sample mean comparison in a growing number of pooled components.

The pooled covariance ``c_N + (N/M) c*_M`` supplies directions and scales;
the statistic sums squared normalized projections of the mean difference and
is compared to its normal limit after centering by d and scaling by sqrt(2d).
Whether d pooled components exist is decided by ``fpca._require_components``,
the rule the change-point tests use too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (
    CovarianceSurface,
    FunctionalSample,
    _finite_covariance,
    empirical_covariance,
    require_same_grid,
)
from .errors import ConfigurationError
from .fpca import EigenSystem, _gram_eigensystem, _require_components, eigendecompose
from .limitdist import normal_p_value

__all__ = [
    "TwoSampleOutcome",
    "pooled_covariance",
    "pooled_eigensystem",
    "two_sample_test",
]


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
    cx = empirical_covariance(x).values
    cy = empirical_covariance(y).values
    ratio = x.n_curves / y.n_curves
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        pooled = cx + ratio * cy
    return CovarianceSurface(x.grid, _finite_covariance(pooled))


def pooled_eigensystem(x: FunctionalSample, y: FunctionalSample, d_max: int) -> EigenSystem:
    """Leading pooled components, via an (N+M) Gram solve when that is smaller."""
    require_same_grid(x.grid, y.grid, "pooled_eigensystem")
    if d_max < 1:
        raise ConfigurationError(f"d must be >= 1, got {d_max}")
    n, m = x.n_curves, y.n_curves
    if n + m > x.grid.size:
        return eigendecompose(pooled_covariance(x, y), d_max)
    w_half = np.sqrt(x.grid.weights)
    xc = (x.values - x.values.mean(axis=0)) * w_half[None, :]
    yc = (y.values - y.values.mean(axis=0)) * w_half[None, :]
    stacked = np.vstack([xc / np.sqrt(n), yc * (np.sqrt(n) / m)])
    return _gram_eigensystem(x.grid, stacked, 1, d_max)


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
    eig = pooled_eigensystem(x, y, d)
    _require_components(eig, d)
    statistic, z = _projected_statistic(x, y, eig, d)
    return TwoSampleOutcome(
        statistic=statistic,
        z_score=z,
        p_value=normal_p_value(z),
        d=d,
        diagnostics={
            "eigenvalues": eig.eigenvalues[:d].copy(),
            "spacings": eig.spacings[:d].copy(),
            "ratio": x.n_curves / y.n_curves,
        },
    )
