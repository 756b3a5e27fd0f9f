"""Independent references the tests check the package against.

``simulate_gamma_functional`` draws the limit law of the integrated squared
CUSUM process with no spectral shortcut: it builds the Gaussian field itself
from a Wiener sheet via a time rescaling and integrates its square by
quadrature. ``limitdist.simulate_tld`` draws the same law from its truncated
double series, so agreement between the two checks the series route.
Replicate r draws from its own ``(seed, r)`` stream and the replicates run
in threads through ``fdchange._parallel.run_replicates``, so the draws are
the same for any core count.

``tld_chunk_per_draw`` is the series sampler's draw one replicate at a
time: fill, square and weigh each replicate's normals on their own.
``limitdist._tld_chunk`` does the arithmetic a block of replicates at a
time and must give the same bits.

``kernel_spectrum`` is the eigenvalue-only solve of a kernel's Nystrom
discretization, built out of place: the matrix W^{1/2} K W^{1/2},
symmetrized, whose eigenvalues are those of the integral operator with
kernel K on the grid. The stored table of ``limitdist`` holds its bits on
the law's grid.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from fdchange._parallel import run_replicates
from fdchange._rng import replicate_rngs
from fdchange.errors import ConfigurationError, ResolutionError
from fdchange.limitdist import MIN_REPS


def kernel_spectrum(grid, kernel: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the kernel sampled on ``grid`` x ``grid``."""
    w_half = np.sqrt(grid.weights)
    b = w_half[:, None] * kernel * w_half[None, :]
    return np.linalg.eigvalsh((b + b.T) / 2.0)[::-1]


def tld_chunk_per_draw(
    seed: int, lam: np.ndarray, nu: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Draws ``start`` to ``stop - 1`` of the truncated double series, one by one."""
    out = np.empty(stop - start)
    g = np.empty((lam.size, nu.size))
    for i, rng in enumerate(replicate_rngs(seed, start, stop)):
        rng.standard_normal(out=g)
        np.multiply(g, g, out=g)
        out[i] = lam @ g @ nu
    return out


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
    for i, rng in enumerate(replicate_rngs(seed, start, stop)):
        increments = rng.standard_normal((grid_u, grid_x - 1)) * inc_scale[None, :]
        sheet = increments.cumsum(axis=0).cumsum(axis=1)
        gamma_sq = np.zeros((grid_u + 1, grid_x + 1))
        gamma_sq[1:, 1:-1] = (sheet * shrink[None, :]) ** 2
        out[i] = u_weights @ gamma_sq @ x_weights
    return out


def simulate_gamma_functional(
    grid_u: int = 200,
    grid_x: int = 200,
    reps: int = 20_000,
    seed: int = 0,
) -> np.ndarray:
    """Draws of the integrated squared limit field, simulated as a Wiener sheet.

    ``grid_u``/``grid_x`` count increments; the field is evaluated on the
    (grid_u + 1) x (grid_x + 1) lattice including both endpoints, where the
    x = 0 and x = 1 columns vanish identically.
    """
    if grid_u < 50 or grid_x < 50:
        raise ResolutionError("gamma-representation grids need at least 50 increments each")
    if reps < MIN_REPS:
        raise ConfigurationError(f"reps must be >= {MIN_REPS}, got {reps}")
    return run_replicates(partial(_gamma_chunk, seed, grid_u, grid_x), reps)
