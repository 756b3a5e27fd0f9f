"""Two-sample mean comparison in a growing number of pooled components.

The pooled covariance ``c_N + (N/M) c*_M`` supplies directions and scales.
It is R^T R for the rows R of both samples' centered, weighted curves, the
first sample's scaled by 1/sqrt(N) and the second's by sqrt(N)/M, so
``fpca.eigendecompose`` solves it like a sample covariance. The statistic
sums squared normalized projections of the mean difference and is compared
to its normal limit after centering by d and scaling by sqrt(2d).
Whether d pooled components exist is decided by ``fpca._require_components``,
the rule the change-point tests use too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import FunctionalSample, require_same_grid
from .fpca import EigenSystem, _require_components, eigendecompose
from .limitdist import normal_p_value

__all__ = [
    "TwoSampleOutcome",
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


def pooled_eigensystem(x: FunctionalSample, y: FunctionalSample, d_max: int) -> EigenSystem:
    """Leading components of the pooled covariance c_N + (N/M) c*_M."""
    require_same_grid(x.grid, y.grid, "pooled_eigensystem")
    n, m = x.n_curves, y.n_curves
    rows = np.empty((n + m, x.grid.size))
    np.subtract(x.values, x.values.mean(axis=0), out=rows[:n])
    np.subtract(y.values, y.values.mean(axis=0), out=rows[n:])
    rows *= np.sqrt(x.grid.weights)[None, :]
    rows[:n] /= np.sqrt(n)
    rows[n:] *= np.sqrt(n) / m
    return eigendecompose(x.grid, rows, 1, d_max)


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
