"""Two-sample mean comparison in a growing number of pooled components.

The pooled covariance ``c_N + (N/M) c*_M`` supplies directions and scales.
It is R^T R for the rows R of both samples' centered, weighted curves, the
first sample's scaled by 1/sqrt(N) and the second's by sqrt(N)/M, so
``fpca.eigendecompose`` solves it like a sample covariance. The statistic
sums squared normalized projections of the mean difference and is compared
to its normal limit after centering by d and scaling by sqrt(2d); that null,
like every test's, is picked by ``changepoint._p_values``.
Whether d pooled components exist is decided by ``fpca._require_components``,
the rule the change-point tests use too.
"""

from __future__ import annotations

import numpy as np

from .changepoint import TestOutcome, _p_values
from .curves import FunctionalSample, require_same_grid
from .fpca import EigenSystem, _require_components, eigendecompose

__all__ = [
    "pooled_eigensystem",
    "two_sample_test",
]


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


def two_sample_test(x: FunctionalSample, y: FunctionalSample, d: int) -> TestOutcome:
    """Compare sample means in the leading d pooled components.

    The outcome's ``statistic`` is the quadratic form D and its ``z_score``
    the standardized D that the p-value reads.
    """
    eig = pooled_eigensystem(x, y, d)
    _require_components(eig, d)
    statistic, z = _projected_statistic(x, y, eig, d)
    return TestOutcome(
        method="two-sample",
        statistic=statistic,
        p_value=_p_values("two-sample", z),
        d=d,
        diagnostics={
            "eigenvalues": eig.eigenvalues[:d].copy(),
            "spacings": eig.spacings[:d].copy(),
            "ratio": x.n_curves / y.n_curves,
        },
        z_score=z,
    )
