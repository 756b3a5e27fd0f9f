"""Deterministic replicate-indexed random streams.

All Monte Carlo loops in this package draw replicate ``r`` from a stream
derived from ``(seed, r)`` via the counter-based Philox generator, so results
are reproducible and independent of execution order or worker count.

Stream ``r`` of ``seed`` is Philox under the key of ``SeedSequence(seed)``
with its 256-bit counter started at ``r * 2**128``. That is exactly the
stream of ``Philox(seed).jumped(r)``, addressed directly: no generator is
built only to be advanced, and the ``SeedSequence`` of a seed is built once
per process rather than once per replicate.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index as as_int

import numpy as np

from .errors import ConfigurationError

__all__ = ["replicate_rng", "resolve_seed"]


@lru_cache(maxsize=8)
def _seed_sequence(seed: int) -> np.random.SeedSequence:
    # Philox derives its key from this with generate_state, which leaves the
    # sequence unchanged; only spawn() would mutate the shared instance.
    return np.random.SeedSequence(seed)


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Return the generator for replicate ``index`` of a run keyed by ``seed``.

    Each call builds a new, independent generator positioned at the start of
    stream ``index``; its bits equal those of ``Philox(seed).jumped(index)``.
    """
    index = as_int(index)  # a NumPy integer would wrap the shift below to 0
    if index < 0:
        raise ValueError(f"replicate index must be >= 0, got {index}")
    return np.random.Generator(np.random.Philox(_seed_sequence(seed), counter=index << 128))


def resolve_seed(seed: int | None) -> int:
    """Return ``seed`` itself, or a fresh entropy-derived seed when ``None``.

    A negative seed raises ``ConfigurationError``: Philox keys come from a
    ``SeedSequence``, which accepts only non-negative integers.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy % (2**63))
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return int(seed)
