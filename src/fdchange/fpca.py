"""Functional principal components on a quadrature grid.

Every covariance the package decomposes is R^T R / divisor, with R the rows
of centered curves times W^{1/2} (W the diagonal trapezoid weights): the
sample's curves for ``sample_eigensystem``, the two samples stacked with
their weights for ``twosample.pooled_eigensystem``. ``eigendecompose``
solves it from the smaller side of R: the N x N Gram matrix R R^T, whose
eigenvectors it lifts through R, when N <= T, and the T x T matrix R^T R
itself otherwise. Either way the eigenvectors, rescaled by W^{-1/2}, are
eigenfunctions orthonormal under the quadrature inner product.

Every eigensolve goes through ``numpy.linalg``, so that a run drives one
BLAS library and thread pool. A solve that does not converge is degenerate
data.

This module owns the retention rule for every test: ``_check_d`` refuses a
d below 1, and ``_require_components`` decides whether d components survive
the floor, raising the one error each shortfall maps to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import FunctionalSample, Grid, _frozen, require_same_grid
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
            object.__setattr__(self, name, _frozen(getattr(self, name)))
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


def _check_d(d: int) -> None:
    """Refuse a component count below 1."""
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")


def eigendecompose(grid: Grid, rows: np.ndarray, divisor: float, d_max: int) -> EigenSystem:
    """Leading eigenpairs of the covariance ``rows.T @ rows / divisor``.

    ``rows`` are N centered curves times W^{1/2}. When N <= T the N x N Gram
    matrix is solved and its eigenvectors lifted through ``rows``; when
    N > T the T x T matrix is solved directly. The Gram solve squares the
    condition number, so a component many orders below the top can lift to
    a function that is not orthonormal to the others: the leading
    components that are orthonormal are kept and the rest dropped. Keeps
    at most ``d_max`` eigenvalues above ``default_eigenvalue_floor`` of the
    top one.
    """
    _check_d(d_max)
    n, t = rows.shape
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        product = (rows @ rows.T if n <= t else rows.T @ rows) / divisor
        product = (product + product.T) / 2.0
    if not np.all(np.isfinite(product)):
        raise DegenerateDataError("the covariance overflows float64; rescale the curves")
    try:
        vals, vecs = np.linalg.eigh(product)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(f"the eigensolver failed: {exc}") from exc
    vals, vecs = vals[::-1], vecs[:, ::-1]  # largest first
    keep = _keep_count(vals, d_max)
    vectors = vecs[:, :keep]
    if n <= t:  # lift the Gram eigenvectors through the rows
        vectors = (rows.T @ vectors) / np.sqrt(divisor * vals[:keep])[None, :]
    functions = (vectors / np.sqrt(grid.weights)[:, None]).T
    gram_f = functions @ (grid.weights[:, None] * functions.T)
    i, j = np.nonzero(np.abs(gram_f - np.eye(keep)) > ORTHONORMAL_TOL)
    keep = int(np.maximum(i, j).min()) if i.size else keep
    return _build_eigensystem(grid, vals, functions, keep, d_max)


def sample_eigensystem(sample: FunctionalSample, d_max: int) -> EigenSystem:
    """Eigensystem of the sample's covariance, divisor N (not N - 1)."""
    rows = sample.values - sample.values.mean(axis=0)
    rows *= np.sqrt(sample.grid.weights)[None, :]
    return eigendecompose(sample.grid, rows, sample.n_curves, d_max)


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Centered projection scores (N x d) with the matching eigenvalues.

    It checks the shapes, that every eigenvalue is positive, and the
    variance identity sum_i eta[i, j]^2 / N = eigenvalue_j within 1e-6
    relative, which also catches scores paired with another sample's
    eigenvalues and bounds each column mean by 1e-3 sqrt(eigenvalue_j).
    It does not re-check that the columns sum to zero: ``compute_scores``
    centers the curves once, at the data's scale, and every statistic uses
    bridges of the partial sums, which a constant per column does not move.
    """

    scores: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        for name in ("scores", "eigenvalues"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        s, lam = self.scores, self.eigenvalues
        if s.ndim != 2 or lam.shape != (s.shape[1],):
            raise ValueError("scores must be N x d with one eigenvalue per column")
        if np.any(lam <= 0):
            raise ValueError("score eigenvalues must be positive")
        col_var = (s * s).sum(axis=0) / s.shape[0]
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
    _check_d(d)
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
