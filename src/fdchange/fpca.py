"""Functional principal components on a quadrature grid.

The integral operator with kernel ``c`` is discretized as W^{1/2} C W^{1/2}
(W the diagonal weight matrix), a symmetric matrix whose eigenvalues equal the
operator's and whose eigenvectors, rescaled by W^{-1/2}, are orthonormal under
the quadrature inner product. One Gram-matrix route (`_gram_eigensystem`)
gets the same decomposition from N weighted curve rows via an N x N solve; it
serves the sample and the pooled two-sample decompositions and thereby the
simulation loops.

Every eigensolve goes through ``numpy.linalg``, so that a run drives one
BLAS library and thread pool. A solve that does not converge is degenerate
data.

This module owns the retention rule for every test: ``_require_components``
decides whether d components survive the floor, and raises the one error
each shortfall maps to (a d below 1, no component, fewer than d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import (
    CovarianceSurface,
    FunctionalSample,
    Grid,
    _finite_covariance,
    empirical_covariance,
    require_same_grid,
)
from .errors import ConfigurationError, DegenerateDataError, DimensionError

__all__ = [
    "EigenSystem",
    "ScoreMatrix",
    "eigendecompose",
    "sample_eigensystem",
    "compute_scores",
    "variance_explained",
]


#: Largest entry of |<v_i, v_j> - delta_ij| an eigensystem may carry.
ORTHONORMAL_TOL = 1e-8


def default_eigenvalue_floor(largest: float) -> float:
    """Components at or below this are treated as numerically zero."""
    return max(1e-12, 1e-10 * largest)


def _spacings(retained: np.ndarray, next_eigenvalue: float | None) -> np.ndarray:
    """Nearest-neighbour gaps; the first entry is the gap below the top eigenvalue."""
    if next_eigenvalue is not None:
        tail = next_eigenvalue
    else:  # a lone component is measured against zero, the last of several only upward
        tail = 0.0 if retained.size == 1 else -np.inf
    gaps = retained - np.append(retained[1:], tail)
    spac = gaps.copy()
    spac[1:] = np.minimum(gaps[:-1], gaps[1:])
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
            if float(np.max(np.abs(gram - np.eye(lam.size)))) > ORTHONORMAL_TOL:
                raise ValueError("eigenfunctions are not quadrature-orthonormal within 1e-8")

    @property
    def d(self) -> int:
        return self.eigenvalues.size


def _fix_signs(functions: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each eigenfunction positive."""
    if functions.size == 0:
        return functions
    idx = np.argmax(np.abs(functions), axis=1)
    signs = np.sign(functions[np.arange(functions.shape[0]), idx])
    signs[signs == 0] = 1.0
    return functions * signs[:, None]


def _keep_count(eigenvalues: np.ndarray, d_max: int) -> int:
    """How many leading eigenvalues survive the default floor, capped at ``d_max``."""
    largest = float(eigenvalues[0]) if eigenvalues.size else 0.0
    return min(d_max, int(np.sum(eigenvalues > default_eigenvalue_floor(largest))))


def _build_eigensystem(
    grid: Grid, eigenvalues: np.ndarray, functions: np.ndarray, keep: int, d_max: int
) -> EigenSystem:
    """Keep the leading ``keep`` of a raw descending eigendecomposition, signs fixed."""
    next_lam = float(eigenvalues[keep]) if keep < eigenvalues.size else None
    return EigenSystem(
        grid=grid,
        eigenvalues=eigenvalues[:keep].copy(),
        functions=_fix_signs(functions[:keep]),
        spacings=_spacings(eigenvalues[:keep], next_lam),
        truncated=keep < d_max,
    )


def _weighted_kernel(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Overwrite the kernel ``values`` with the symmetric W^{1/2} C W^{1/2}; return it.

    The operations are those of ``(b + b.T) / 2`` with ``b = w[:, None] * C
    * w[None, :]``, in their order, so the bits match that formula; no
    second n x n matrix outlives the call.
    """
    w_half = np.sqrt(weights)
    values *= w_half[:, None]
    values *= w_half[None, :]
    values += values.T  # numpy buffers the overlapping transpose
    values /= 2.0
    return values


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix, largest first."""
    try:
        vals, vecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(f"the eigensolver failed: {exc}") from exc
    return vals[::-1], vecs[:, ::-1]


def eigendecompose(surface: CovarianceSurface, d_max: int) -> EigenSystem:
    """Leading eigenpairs of the integral operator with kernel ``surface``.

    Keeps at most ``d_max`` eigenvalues above ``default_eigenvalue_floor``
    of the top one.
    """
    if d_max < 1:
        raise ConfigurationError(f"d must be >= 1, got {d_max}")
    b = _weighted_kernel(surface.grid.weights, surface.values.copy())
    vals, vecs = _eigh(b)
    trace = float(np.trace(b))
    if vals.size and float(vals[-1]) < -1e-8 * max(trace, 0.0):
        raise DegenerateDataError(
            "surface is not positive semidefinite: "
            f"eigenvalue {vals[-1]:.3e} below -1e-8 * trace"
        )
    keep = _keep_count(vals, d_max)
    # Only the kept eigenvectors are lifted; rows are eigenfunctions.
    functions = (vecs[:, :keep] / np.sqrt(surface.grid.weights)[:, None]).T
    return _build_eigensystem(surface.grid, vals, functions, keep, d_max)


def _gram_eigensystem(grid: Grid, rows: np.ndarray, divisor: float, d_max: int) -> EigenSystem:
    """Eigensystem of the covariance of ``rows`` (curves times W^{1/2}) / ``divisor``.

    Solves the small Gram matrix ``rows @ rows.T / divisor`` and lifts its
    eigenvectors to quadrature-orthonormal eigenfunctions. The Gram solve
    squares the condition number, so a component many orders below the top
    can lift to a function that is not orthonormal to the others; the
    leading components that lift cleanly are kept and the rest dropped.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        gram = rows @ rows.T / divisor
        gram = (gram + gram.T) / 2.0
    vals, vecs = _eigh(_finite_covariance(gram))
    keep = _keep_count(vals, d_max)
    lifted = (rows.T @ vecs[:, :keep]) / np.sqrt(divisor * vals[:keep])[None, :]
    functions = (lifted / np.sqrt(grid.weights)[:, None]).T
    gram_f = functions @ (grid.weights[:, None] * functions.T)
    i, j = np.nonzero(np.abs(gram_f - np.eye(keep)) > ORTHONORMAL_TOL)
    keep = int(np.maximum(i, j).min()) if i.size else keep
    return _build_eigensystem(grid, vals, functions, keep, d_max)


def sample_eigensystem(sample: FunctionalSample, d_max: int) -> EigenSystem:
    """Eigensystem of ``empirical_covariance(sample)`` via the N x N Gram matrix.

    Mathematically identical to the surface route for every component above
    the floor; costs O(N^2 T) instead of O(T^3).
    """
    if d_max < 1:
        raise ConfigurationError(f"d must be >= 1, got {d_max}")
    n, t = sample.values.shape
    if n > t:
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


def _require_components(eig: EigenSystem, d: int) -> None:
    """Raise unless ``eig`` retains at least ``d`` >= 1 components."""
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")
    if eig.d == 0:
        raise DegenerateDataError(
            "degenerate covariance: no components above the eigenvalue floor"
        )
    if eig.d < d:
        raise DimensionError(
            f"requested d={d} but only {eig.d} components are retained above the floor"
        )


def compute_scores(sample: FunctionalSample, eig: EigenSystem, d: int) -> ScoreMatrix:
    """Scores eta[i, j] = <X_i - mean, v_j> for the first ``d`` components."""
    _require_components(eig, d)
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
