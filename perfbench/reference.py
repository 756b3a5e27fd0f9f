"""Independent reference values for the output checks.

These re-derive the change-point statistic from its definition with plain
numpy (an SVD instead of the package's Gram eigensolver), so a check does
not trust the code it checks. Nothing here imports the package under test.
"""

from __future__ import annotations

import math

import numpy as np

#: Fourier basis size and analysis grid of the CLI defaults.
BASIS_SIZE = 49
GRID_SIZE = 365


def fourier_design(t: np.ndarray, size: int = BASIS_SIZE) -> np.ndarray:
    """{1, sqrt2 sin(2 pi k t), sqrt2 cos(2 pi k t)} evaluated at t."""
    cols = [np.ones_like(t)]
    for k in range(1, (size - 1) // 2 + 1):
        cols.append(math.sqrt(2.0) * np.sin(2.0 * np.pi * k * t))
        cols.append(math.sqrt(2.0) * np.cos(2.0 * np.pi * k * t))
    return np.column_stack(cols)


def trapezoid_weights(n: int) -> np.ndarray:
    w = np.full(n, 1.0 / (n - 1))
    w[[0, -1]] /= 2.0
    return w


def smooth_day_of_year(days: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Least-squares Fourier fit of complete day-of-year rows, on the analysis grid."""
    t = (days - 1.0) / 364.0
    coef, *_ = np.linalg.lstsq(fourier_design(t), values.T, rcond=None)
    return (fourier_design(np.linspace(0.0, 1.0, GRID_SIZE)) @ coef).T


def _cusums(values: np.ndarray, d: int) -> np.ndarray:
    """sqrt(N) times the partial sums of the top-d left singular vectors.

    With Gram eigenvectors u_j the scores are sqrt(N lambda_j) u_j, so the
    eigenvalue-normalized score partial sums reduce to sqrt(N) cumsum(u_j).
    """
    n, t = values.shape
    weighted = (values - values.mean(axis=0)) * np.sqrt(trapezoid_weights(t))
    u, _, _ = np.linalg.svd(weighted, full_matrices=False)
    sums = np.zeros((d, n + 1))
    sums[:, 1:] = np.cumsum(u[:, :d].T, axis=1)
    return math.sqrt(n) * sums


def _braces(sums: np.ndarray) -> np.ndarray:
    n = sums.shape[1] - 1
    x = np.arange(n + 1) / n
    bridge = sums - x * sums[:, -1:]
    return bridge**2 / n - x * (1.0 - x)


def cvm2d_statistics(values: np.ndarray, d_max: int) -> np.ndarray:
    """Integrated squared Z(u, x) for d = 1..d_max on one sample.

    Z is a step function: on u in [i/d, (i+1)/d) it is d^{-1/2} times the sum
    of the first i brace rows, and on x in [k/N, (k+1)/N) it takes column k.
    """
    braces = _braces(_cusums(values, d_max))
    n = braces.shape[1] - 1
    out = np.empty(d_max)
    for d in range(1, d_max + 1):
        prefixes = np.cumsum(braces[: d - 1], axis=0)[:, :n]
        out[d - 1] = float((prefixes**2).sum()) / (d * d * n)
    return out

