"""Discretized curves on [0, 1]: grids and samples.

Curves are stored as raw evaluations on a shared quadrature grid. All
integrals in the package reduce to weighted sums over such grids; the only
supported quadrature rule is the trapezoid rule, which is exact for the
piecewise-linear interpolants the rest of the code reasons about, so a
``Grid`` takes only its points and derives its weights. ``FunctionalSample``
alone checks that a sample has at least 2 curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, InsufficientSampleError

__all__ = ["Grid", "FunctionalSample"]

#: Two grids are considered equal when their points agree within this.
GRID_EQ_TOL = 1e-14


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only float64 array: the one way results freeze their arrays."""
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
    """Strictly increasing evaluation points spanning [0, 1], with their
    trapezoid weights."""

    points: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        p = _frozen(self.points)
        object.__setattr__(self, "points", p)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("grid needs a 1-d array of at least 2 points")
        if not np.all(np.isfinite(p)):
            raise ValueError("grid points must be finite")
        if np.any(np.diff(p) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if p[0] < 0.0 or p[-1] > 1.0:
            raise ValueError("grid points must lie in [0, 1]")
        w = _frozen(trapezoid_weights(p))
        object.__setattr__(self, "weights", w)
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(
                f"quadrature weights must integrate the constant 1 over [0, 1]; sum={total!r}"
            )

    @classmethod
    def uniform(cls, size: int) -> "Grid":
        """Uniform grid of ``size`` points from 0 to 1 inclusive."""
        if size < 2:
            raise ValueError(f"uniform grid needs size >= 2, got {size}")
        return cls(np.linspace(0.0, 1.0, size))

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

    def rows(self, lo: int, hi: int) -> "FunctionalSample":
        """Sub-sample of curves ``lo..hi`` inclusive (same grid)."""
        if not (0 <= lo <= hi < self.n_curves):
            raise ValueError(f"row range [{lo}, {hi}] out of bounds for N={self.n_curves}")
        return FunctionalSample(self.grid, self.values[lo : hi + 1])
