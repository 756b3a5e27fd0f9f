"""The limit distribution of the two-parameter CUSUM functional.

Under the null, the integrated squared process converges to
``sum_{k,l} lambda_k nu_l N_{k,l}^2`` where the ``N_{k,l}`` are independent
standard normals, ``lambda_k = (pi (k - 1/2))^{-2}`` are the eigenvalues of
the Wiener covariance min(t, s), and ``nu_l`` are the eigenvalues of the
kernel ``2 (min(t, s) - t s)^2`` (the covariance of a squared Brownian
bridge). This module simulates that law two independent ways:

* ``simulate_tld``  - truncated double series with Nystrom-computed ``nu_l``;
* ``simulate_gamma_functional`` - the Gaussian field itself, built from a
  Wiener sheet via a time rescaling, integrated by quadrature.

It also gives the mean and sd of the maximum of a squared Brownian bridge on
a grid, in closed form, for the ``sup-bridge`` normal-limit test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._parallel import run_replicates
from ._rng import replicate_rng
from .curves import CovarianceSurface, Grid
from .errors import ConfigurationError, ResolutionError
from .fpca import eigendecompose

__all__ = [
    "wiener_eigenvalues",
    "bridge_sq_kernel_eigenvalues",
    "LimitLaw",
    "simulate_tld",
    "simulate_gamma_functional",
    "bridge_sup_moments",
]

STANDARD_ALPHAS = (0.01, 0.05, 0.10)


def wiener_eigenvalues(count: int) -> np.ndarray:
    """Eigenvalues (pi (k - 1/2))^{-2} of the covariance min(t, s); sum -> 1/2."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    k = np.arange(1, count + 1)
    return 1.0 / (np.pi * (k - 0.5)) ** 2


def bridge_sq_kernel_eigenvalues(
    count: int | None, nystrom_points: int = 1000
) -> np.ndarray:
    """Leading eigenvalues of the kernel 2 (min(t,s) - ts)^2 by the Nystrom method.

    Uses the same symmetric weighted scheme as ``fpca.eigendecompose`` on a
    uniform trapezoid grid. Individual eigenvalues are only resolved for
    ``count <= nystrom_points / 4``; pass ``count=None`` for the whole
    discretized spectrum, whose sum reproduces the kernel trace 1/15 to
    quadrature accuracy (the eigenvalues decay like 1/l^2, so no truncated
    prefix gets that close).
    """
    if count is not None:
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if nystrom_points < 4 * count:
            raise ResolutionError(
                f"nystrom_points={nystrom_points} too coarse for {count} eigenvalues "
                f"(need at least {4 * count})"
            )
    grid = Grid.uniform(nystrom_points)
    t = grid.points
    kernel = 2.0 * (np.minimum.outer(t, t) - np.outer(t, t)) ** 2
    eig = eigendecompose(
        CovarianceSurface(grid, kernel), nystrom_points if count is None else count
    )
    return eig.eigenvalues


@dataclass(frozen=True, eq=False)
class LimitLaw:
    """Simulated reference distribution with its defining spectra."""

    wiener_eigs: np.ndarray
    bridge_sq_eigs: np.ndarray
    truncation: int
    samples: np.ndarray = field(repr=False)  # sorted ascending
    quantiles: dict[float, float]
    reps: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("wiener_eigs", "bridge_sq_eigs", "samples"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        lam, nu = self.wiener_eigs, self.bridge_sq_eigs
        k = self.truncation
        if lam.shape != (k,) or np.any(np.diff(lam) >= 0) or lam[-1] <= 0:
            raise ValueError("wiener eigenvalues must be strictly decreasing and positive")
        tail = 0.5 - lam.sum()
        if not (0.0 < tail <= 2.0 / (np.pi**2 * k)):
            raise ValueError("wiener eigenvalue partial sum violates its tail bound")
        if nu.size > k or np.any(np.diff(nu) > 0) or np.any(nu < -1e-10):
            raise ValueError("bridge-square eigenvalues must be non-increasing, >= 0")
        if self.samples.shape != (self.reps,) or np.any(np.diff(self.samples) < 0):
            raise ValueError("samples must be sorted, one per replicate")
        cvs = [self.quantiles[a] for a in sorted(self.quantiles)]
        if np.any(np.diff(cvs) > 0):
            raise ValueError("critical values must decrease as alpha grows")

    def critical_value(self, alpha: float) -> float:
        """Type-7 (linearly interpolated) upper quantile at level ``alpha``."""
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        return float(np.quantile(self.samples, 1.0 - alpha))

    def p_value(self, statistic: float | np.ndarray) -> float | np.ndarray:
        """Add-one smoothed Monte Carlo p-value (1 + #exceed) / (1 + reps).

        A scalar statistic gives a float, an array an array of the same shape.
        """
        exceed = self.reps - np.searchsorted(self.samples, statistic, side="right")
        p = (1 + exceed) / (1 + self.reps)
        return float(p) if np.ndim(p) == 0 else p


def _tld_chunk(seed: int, lam: np.ndarray, nu: np.ndarray, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    g = np.empty((lam.size, nu.size))
    for i, r in enumerate(range(start, stop)):
        replicate_rng(seed, r).standard_normal(out=g)
        np.multiply(g, g, out=g)
        out[i] = lam @ g @ nu
    return out


def simulate_tld(
    truncation: int = 49,
    reps: int = 100_000,
    seed: int = 0,
    nystrom_points: int = 1000,
    workers: int = 1,
) -> LimitLaw:
    """Simulate the truncated double series and package it as a ``LimitLaw``."""
    if reps < 100:
        raise ConfigurationError(f"reps must be >= 100, got {reps}")
    lam = wiener_eigenvalues(truncation)
    nu = bridge_sq_kernel_eigenvalues(truncation, nystrom_points)
    draws = run_replicates(partial(_tld_chunk, seed, lam, nu), reps, workers)
    draws.sort()
    quantiles = {a: float(np.quantile(draws, 1.0 - a)) for a in STANDARD_ALPHAS}
    return LimitLaw(
        wiener_eigs=lam,
        bridge_sq_eigs=nu,
        truncation=truncation,
        samples=draws,
        quantiles=quantiles,
        reps=reps,
        seed=seed,
    )


def _gamma_chunk(
    seed: int, grid_u: int, grid_x: int, start: int, stop: int
) -> np.ndarray:
    u_weights = np.full(grid_u + 1, 1.0 / grid_u)
    u_weights[[0, -1]] /= 2.0
    x = np.linspace(0.0, 1.0, grid_x + 1)
    x_weights = np.full(grid_x + 1, 1.0 / grid_x)
    x_weights[[0, -1]] /= 2.0
    x_int = x[1:-1]
    # Interior x maps to the sheet time y = x^2 / (1-x)^2; x = 1 is pinned to 0.
    y = (x_int / (1.0 - x_int)) ** 2
    dy = np.diff(y, prepend=0.0)
    inc_scale = np.sqrt(dy / grid_u)
    shrink = math.sqrt(2.0) * (1.0 - x_int) ** 2
    out = np.empty(stop - start)
    for r in range(start, stop):
        rng = replicate_rng(seed, r)
        increments = rng.standard_normal((grid_u, grid_x - 1)) * inc_scale[None, :]
        sheet = increments.cumsum(axis=0).cumsum(axis=1)
        gamma_sq = np.zeros((grid_u + 1, grid_x + 1))
        gamma_sq[1:, 1:-1] = (sheet * shrink[None, :]) ** 2
        out[r - start] = u_weights @ gamma_sq @ x_weights
    return out


def simulate_gamma_functional(
    grid_u: int = 200,
    grid_x: int = 200,
    reps: int = 20_000,
    seed: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """Draws of the integrated squared limit field, simulated as a Wiener sheet.

    ``grid_u``/``grid_x`` count increments; the field is evaluated on the
    (grid_u + 1) x (grid_x + 1) lattice including both endpoints, where the
    x = 0 and x = 1 columns vanish identically.
    """
    if grid_u < 50 or grid_x < 50:
        raise ResolutionError("gamma-representation grids need at least 50 increments each")
    if reps < 100:
        raise ConfigurationError(f"reps must be >= 100, got {reps}")
    return run_replicates(partial(_gamma_chunk, seed, grid_u, grid_x), reps, workers)


#: zeta(3) and zeta(1/2), for the moments of the Kolmogorov law and its
#: discrete-maximum correction.
_ZETA3 = 1.2020569031595942
_ZETA_HALF = -1.4603545088095868


def bridge_sup_moments(n: int) -> tuple[float, float]:
    """Mean and sd of max_k B(k/n)^2, k = 0..n, for a Brownian bridge B.

    K = sup|B| has the Kolmogorov law, whose raw moments are E K =
    sqrt(pi/2) ln 2, E K^2 = pi^2/12, E K^3 = (9/16) sqrt(pi/2) zeta(3) and
    E K^4 = 7 pi^4/720. The maximum over n + 1 equally spaced points falls
    short of K by about beta / sqrt(n), beta = -zeta(1/2) / sqrt(2 pi)
    (Broadie, Glasserman & Kou, Math. Finance 7 (1997) 325-349), so these
    are the mean and sd of (K - beta / sqrt(n))^2.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    root = math.sqrt(math.pi / 2.0)
    k1 = root * math.log(2.0)
    k2 = math.pi**2 / 12.0
    k3 = 9.0 / 16.0 * root * _ZETA3
    k4 = 7.0 * math.pi**4 / 720.0
    c = -_ZETA_HALF / math.sqrt(2.0 * math.pi) / math.sqrt(n)
    mean = k2 - 2.0 * c * k1 + c * c
    fourth = k4 - 4.0 * c * k3 + 6.0 * c * c * k2 - 4.0 * c**3 * k1 + c**4
    return mean, math.sqrt(fourth - mean * mean)
