"""Discretized curves on [0, 1]: grids, samples, means and covariances.

Curves are stored as raw evaluations on a shared quadrature grid. All
integrals in the package reduce to weighted sums over such grids; the only
supported quadrature rule is the trapezoid rule, which is exact for the
piecewise-linear interpolants the rest of the code reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, GridMismatchError, InsufficientSampleError

__all__ = [
    "Grid",
    "Curve",
    "FunctionalSample",
    "CovarianceSurface",
    "inner_product",
    "sample_mean",
    "empirical_covariance",
]

#: Two grids are considered equal when their points agree within this.
GRID_EQ_TOL = 1e-14


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for an increasing point set."""
    points = np.asarray(points, dtype=float)
    w = np.empty_like(points)
    w[0] = (points[1] - points[0]) / 2.0
    w[-1] = (points[-1] - points[-2]) / 2.0
    w[1:-1] = (points[2:] - points[:-2]) / 2.0
    return w


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing evaluation points spanning [0, 1] plus weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _frozen(self.points))
        object.__setattr__(self, "weights", _frozen(self.weights))
        p, w = self.points, self.weights
        if p.ndim != 1 or p.size < 2:
            raise ValueError("grid needs a 1-d array of at least 2 points")
        if w.shape != p.shape:
            raise ValueError("weights must match points in shape")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w))):
            raise ValueError("grid points and weights must be finite")
        if np.any(np.diff(p) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if p[0] < 0.0 or p[-1] > 1.0:
            raise ValueError("grid points must lie in [0, 1]")
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be positive")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(
                f"quadrature weights must integrate the constant 1 over [0, 1]; sum={total!r}"
            )

    @classmethod
    def from_points(cls, points: np.ndarray) -> "Grid":
        """Grid with trapezoid weights on the given points (must span [0, 1])."""
        return cls(points, trapezoid_weights(np.asarray(points, dtype=float)))

    @classmethod
    def uniform(cls, size: int) -> "Grid":
        """Uniform grid of ``size`` points from 0 to 1 inclusive."""
        if size < 2:
            raise ValueError(f"uniform grid needs size >= 2, got {size}")
        return cls.from_points(np.linspace(0.0, 1.0, size))

    @property
    def size(self) -> int:
        return self.points.size

    def matches(self, other: "Grid") -> bool:
        """Pointwise equality within ``GRID_EQ_TOL``."""
        return self.points.shape == other.points.shape and bool(
            np.max(np.abs(self.points - other.points)) <= GRID_EQ_TOL
        )


def require_same_grid(a: Grid, b: Grid, context: str) -> None:
    if not a.matches(b):
        raise GridMismatchError(f"{context}: evaluation grids differ")


@dataclass(frozen=True, eq=False)
class Curve:
    """A single function sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values))
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"curve has {self.values.shape} values for a {self.grid.size}-point grid"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """N curves (rows) sharing one grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values))
        v = self.values
        if v.ndim != 2:
            raise ValueError("sample values must be a 2-d array (curves by grid points)")
        if v.shape[0] < 2:
            raise InsufficientSampleError(
                f"a functional sample needs at least 2 curves, got {v.shape[0]}"
            )
        if v.shape[1] != self.grid.size:
            raise GridMismatchError(
                f"sample rows have {v.shape[1]} values for a {self.grid.size}-point grid"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("sample values must be finite")

    @property
    def n_curves(self) -> int:
        return self.values.shape[0]

    def curve(self, i: int) -> Curve:
        return Curve(self.grid, self.values[i])

    def rows(self, lo: int, hi: int) -> "FunctionalSample":
        """Sub-sample of curves ``lo..hi`` inclusive (same grid)."""
        if not (0 <= lo <= hi < self.n_curves):
            raise ValueError(f"row range [{lo}, {hi}] out of bounds for N={self.n_curves}")
        return FunctionalSample(self.grid, self.values[lo : hi + 1])


@dataclass(frozen=True, eq=False)
class CovarianceSurface:
    """A symmetric kernel sampled on grid x grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values))
        v = self.values
        t = self.grid.size
        if v.shape != (t, t):
            raise ValueError(f"surface must be {t}x{t} for this grid, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("surface values must be finite")
        scale = float(np.max(np.abs(v)))
        if scale > 0 and float(np.max(np.abs(v - v.T))) > 1e-10 * scale:
            raise ValueError("surface is not symmetric within 1e-10 relative tolerance")
        if float(np.min(np.diagonal(v))) < -1e-10:
            raise ValueError("surface diagonal has negative entries beyond tolerance")

    def trace(self) -> float:
        """Quadrature integral of the diagonal, sum of all operator eigenvalues."""
        return float(np.dot(self.grid.weights, np.diagonal(self.values)))


def inner_product(f: Curve, g: Curve) -> float:
    """L2([0,1]) inner product of two curves on the same grid."""
    require_same_grid(f.grid, g.grid, "inner_product")
    return float(np.dot(f.grid.weights, f.values * g.values))


def sample_mean(sample: FunctionalSample) -> Curve:
    """Pointwise mean curve."""
    return Curve(sample.grid, sample.values.mean(axis=0))


def _finite_covariance(values: np.ndarray) -> np.ndarray:
    """``values``, a covariance built from data, unless it overflowed float64."""
    if not np.all(np.isfinite(values)):
        raise DegenerateDataError("the covariance overflows float64; rescale the curves")
    return values


def empirical_covariance(sample: FunctionalSample) -> CovarianceSurface:
    """Empirical covariance surface with divisor N (not N-1)."""
    n = sample.n_curves
    if n < 2:
        raise InsufficientSampleError("covariance needs at least 2 curves")
    centered = sample.values - sample.values.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        surface = centered.T @ centered / n
        # Exact symmetry regardless of BLAS rounding order.
        surface = (surface + surface.T) / 2.0
    return CovarianceSurface(sample.grid, _finite_covariance(surface))
