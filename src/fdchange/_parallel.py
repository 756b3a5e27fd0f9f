"""Deterministic chunked fan-out for the limit-law draws of ``limitdist``.

Its one package caller is ``simulate_tld``; the tests' Gaussian-sheet sampler
(``tests/_references.py``) uses it too. Fan out only loops that make no
sizable BLAS calls: each forked worker keeps numpy's whole BLAS thread pool,
so a loop with an eigensolve per replicate runs slower in more processes.
Each worker gets a contiguous replicate range, and replicate r draws from its
own ``(seed, r)`` stream (see ``_rng``), so the result is the same for any
worker count or scheduling order. A one-worker run never imports the process
pool or ``multiprocessing``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = ["run_replicates"]


def run_replicates(
    worker: Callable[[int, int], np.ndarray],
    total: int,
    workers: int = 1,
) -> np.ndarray:
    """Run ``worker(start, stop)`` over [0, total) and stack results in order.

    ``worker`` must return one row (or scalar entry) per replicate and must be
    picklable (a module-level function or functools.partial of one) when
    ``workers > 1``.
    """
    if total < 1:
        raise ConfigurationError(f"total replicates must be >= 1, got {total}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return np.asarray(worker(0, total))
    from concurrent.futures import ProcessPoolExecutor

    n_chunks = min(total, 4 * workers)
    bounds = np.linspace(0, total, n_chunks + 1).astype(int)
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(worker, *zip(*spans)))
    return np.concatenate(parts, axis=0)
