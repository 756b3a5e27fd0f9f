"""Functional principal components on a quadrature grid.

The integral operator with kernel ``c`` is discretized as W^{1/2} C W^{1/2}
(W the diagonal weight matrix), a symmetric matrix whose eigenvalues equal the
operator's and whose eigenvectors, rescaled by W^{-1/2}, are orthonormal under
the quadrature inner product. One Gram-matrix route (`_gram_eigensystem`)
gets the same decomposition from N weighted curve rows via an N x N solve; it
serves the sample and the pooled two-sample decompositions and thereby the
simulation loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .curves import CovarianceSurface, Curve, FunctionalSample, Grid, _finite_covariance
from .errors import ConfigurationError, DegenerateDataError, DimensionError

__all__ = [
    "EigenSystem",
    "ScoreMatrix",
    "eigendecompose",
    "sample_eigensystem",
    "compute_scores",
    "variance_explained",
    "suggest_d",
]


def default_eigenvalue_floor(largest: float) -> float:
    """Components at or below this are treated as numerically zero."""
    return max(1e-12, 1e-10 * largest)


def _spacings(retained: np.ndarray, next_eigenvalue: float | None) -> np.ndarray:
    """Nearest-neighbour gaps; the first entry is the gap below the top eigenvalue."""
    k = retained.size
    if k == 0:
        return np.empty(0)
    extended = retained if next_eigenvalue is None else np.append(retained, next_eigenvalue)
    gaps_up = np.empty(k)  # lambda_{j-1} - lambda_j
    gaps_up[0] = np.inf
    gaps_up[1:] = retained[:-1] - retained[1:]
    gaps_down = np.full(k, np.inf)  # lambda_j - lambda_{j+1}
    avail = min(k, extended.size - 1)
    gaps_down[:avail] = extended[:avail] - extended[1 : avail + 1]
    spac = np.minimum(gaps_up, gaps_down)
    if k == 1:
        spac[0] = retained[0] - (next_eigenvalue if next_eigenvalue is not None else 0.0)
    else:
        spac[0] = retained[0] - retained[1]
    return spac


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Retained eigenvalues/eigenfunctions of a covariance operator.

    ``truncated`` is set when fewer components than requested survived the
    eigenvalue floor, so callers never mistake a short list for a full one.
    """

    grid: Grid
    eigenvalues: np.ndarray
    functions: np.ndarray = field(repr=False)  # (d, T), quadrature-orthonormal rows
    spacings: np.ndarray
    requested: int
    truncated: bool

    def __post_init__(self) -> None:
        for name in ("eigenvalues", "functions", "spacings"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        lam = self.eigenvalues
        if lam.size:
            if np.any(np.diff(lam) > 0):
                raise ValueError("eigenvalues must be non-increasing")
            if lam[-1] <= 0:
                raise ValueError("retained eigenvalues must be positive")
            if self.functions.shape != (lam.size, self.grid.size):
                raise ValueError("eigenfunction matrix shape mismatch")
            gram = self.functions @ (self.grid.weights[:, None] * self.functions.T)
            if float(np.max(np.abs(gram - np.eye(lam.size)))) > 1e-8:
                raise ValueError("eigenfunctions are not quadrature-orthonormal within 1e-8")

    @property
    def d(self) -> int:
        return self.eigenvalues.size

    def function(self, j: int) -> Curve:
        return Curve(self.grid, self.functions[j])


def _fix_signs(functions: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each eigenfunction positive."""
    if functions.size == 0:
        return functions
    idx = np.argmax(np.abs(functions), axis=1)
    signs = np.sign(functions[np.arange(functions.shape[0]), idx])
    signs[signs == 0] = 1.0
    return functions * signs[:, None]


def _keep_count(eigenvalues: np.ndarray, d_max: int, floor: float | None) -> int:
    """How many leading eigenvalues survive the floor, capped at ``d_max``."""
    largest = float(eigenvalues[0]) if eigenvalues.size else 0.0
    lo = default_eigenvalue_floor(largest) if floor is None else floor
    return min(d_max, int(np.sum(eigenvalues > lo)))


def _build_eigensystem(
    grid: Grid,
    eigenvalues: np.ndarray,
    functions: np.ndarray,
    d_max: int,
    floor: float | None,
) -> EigenSystem:
    """Apply floor/cap/sign conventions to a raw descending eigendecomposition."""
    keep = _keep_count(eigenvalues, d_max, floor)
    next_lam = float(eigenvalues[keep]) if keep < eigenvalues.size else None
    return EigenSystem(
        grid=grid,
        eigenvalues=eigenvalues[:keep].copy(),
        functions=_fix_signs(functions[:keep]),
        spacings=_spacings(eigenvalues[:keep], next_lam),
        requested=d_max,
        truncated=keep < d_max,
    )


def eigendecompose(
    surface: CovarianceSurface, d_max: int, *, floor: float | None = None
) -> EigenSystem:
    """Leading eigenpairs of the integral operator with kernel ``surface``.

    Pass ``floor=0.0`` to keep every strictly positive eigenvalue (used by
    trace-reconstruction checks); the default floor is relative to the top
    eigenvalue.
    """
    if d_max < 1:
        raise ConfigurationError(f"d_max must be >= 1, got {d_max}")
    w_half = np.sqrt(surface.grid.weights)
    b = w_half[:, None] * surface.values * w_half[None, :]
    b = (b + b.T) / 2.0
    vals, vecs = scipy.linalg.eigh(b)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    trace = float(np.trace(b))
    if vals.size and float(vals[-1]) < -1e-8 * max(trace, 0.0):
        raise DegenerateDataError(
            "surface is not positive semidefinite: "
            f"eigenvalue {vals[-1]:.3e} below -1e-8 * trace"
        )
    functions = (vecs / w_half[:, None]).T  # rows are eigenfunctions
    return _build_eigensystem(surface.grid, vals, functions, d_max, floor)


def _gram_eigensystem(grid: Grid, rows: np.ndarray, divisor: float, d_max: int) -> EigenSystem:
    """Eigensystem of the covariance of ``rows`` (curves times W^{1/2}) / ``divisor``.

    Solves the small Gram matrix ``rows @ rows.T / divisor`` and lifts its
    eigenvectors to quadrature-orthonormal eigenfunctions.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        gram = rows @ rows.T / divisor
        gram = (gram + gram.T) / 2.0
    gram = _finite_covariance(gram)
    vals, vecs = scipy.linalg.eigh(gram)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = _keep_count(vals, d_max, None)
    lifted = (rows.T @ vecs[:, :keep]) / np.sqrt(divisor * vals[:keep])[None, :]
    functions = (lifted / np.sqrt(grid.weights)[:, None]).T
    return _build_eigensystem(grid, vals, functions, d_max, None)


def sample_eigensystem(sample: FunctionalSample, d_max: int) -> EigenSystem:
    """Eigensystem of ``empirical_covariance(sample)`` via the N x N Gram matrix.

    Mathematically identical to the surface route for every component above
    the floor; costs O(N^2 T) instead of O(T^3).
    """
    if d_max < 1:
        raise ConfigurationError(f"d_max must be >= 1, got {d_max}")
    n, t = sample.values.shape
    if n > t:
        from .curves import empirical_covariance

        return eigendecompose(empirical_covariance(sample), d_max)
    centered = sample.values - sample.values.mean(axis=0)
    rows = centered * np.sqrt(sample.grid.weights)[None, :]
    return _gram_eigensystem(sample.grid, rows, n, d_max)


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Centered projection scores (N x d) with the matching eigenvalues."""

    scores: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        for name in ("scores", "eigenvalues"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        s, lam = self.scores, self.eigenvalues
        if s.ndim != 2 or lam.shape != (s.shape[1],):
            raise ValueError("scores must be N x d with one eigenvalue per column")
        if np.any(lam <= 0):
            raise ValueError("score eigenvalues must be positive")
        n = s.shape[0]
        col_sums = np.abs(s.sum(axis=0))
        if np.any(col_sums > 1e-8 * n * np.sqrt(lam)):
            raise ValueError("score columns must sum to zero (curves are centered)")
        col_var = (s * s).sum(axis=0) / n
        if np.any(np.abs(col_var - lam) > 1e-6 * lam):
            raise ValueError("score column variance must equal its eigenvalue")

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def d(self) -> int:
        return self.scores.shape[1]


def compute_scores(sample: FunctionalSample, eig: EigenSystem, d: int) -> ScoreMatrix:
    """Scores eta[i, j] = <X_i - mean, v_j> for the first ``d`` components."""
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")
    if d > eig.d:
        raise DimensionError(
            f"requested d={d} but only {eig.d} components are retained above the floor"
        )
    from .curves import require_same_grid

    require_same_grid(sample.grid, eig.grid, "compute_scores")
    centered = sample.values - sample.values.mean(axis=0)
    projector = (sample.grid.weights[None, :] * eig.functions[:d]).T  # (T, d)
    return ScoreMatrix(centered @ projector, eig.eigenvalues[:d])


def variance_explained(eigenvalues) -> np.ndarray:
    """Cumulative fraction of variance carried by the leading eigenvalues.

    Accepts an :class:`EigenSystem` or a plain array of eigenvalues; the
    denominator is the sum of exactly the values supplied, so the last
    fraction is 1 by construction.
    """
    if isinstance(eigenvalues, EigenSystem):
        eigenvalues = eigenvalues.eigenvalues
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0:
        raise DegenerateDataError("no eigenvalues to summarize")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    total = lam.sum()
    if total <= 0:
        raise DegenerateDataError("total variance is zero")
    return np.cumsum(lam) / total


def suggest_d(n: int, mode: str = "power-law", beta: float = 1.0) -> int:
    """Slowly growing projection count: ceil(log(N)^beta) or ceil(loglog(N)^beta), floor 2."""
    if n < 3:
        raise ConfigurationError(f"need n >= 3 to suggest a dimension, got {n}")
    if beta <= 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    if mode == "power-law":
        base = math.log(n)
    elif mode == "exponential":
        base = math.log(math.log(n))
    else:
        raise ConfigurationError(f"unknown growth mode {mode!r}")
    if base <= 0:
        return 2
    return max(2, math.ceil(base**beta))
