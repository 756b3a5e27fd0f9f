"""Deterministic replicate-indexed random streams.

All Monte Carlo loops in this package draw replicate ``r`` from a stream
derived from ``(seed, r)`` via the counter-based Philox generator, so results
are reproducible and independent of execution order or worker count.

Stream ``r`` of ``seed`` is Philox under the key of ``SeedSequence(seed)``
with its 256-bit counter started at ``r * 2**128``. That is exactly the
stream of ``Philox(seed).jumped(r)``, addressed directly: no generator is
built only to be advanced, and the ``SeedSequence`` of a seed is built once
per process rather than once per replicate.

Inside a chunk of replicates (``replicate_rngs``), one generator is
re-pointed at each replicate's stream instead of a new one being built per
replicate; the stream addresses, and so every draw, are unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from operator import index as as_int

import numpy as np

from .errors import ConfigurationError

__all__ = ["replicate_rng", "replicate_rngs", "resolve_seed"]


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


def replicate_rngs(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """Yield the generators of replicates ``start`` to ``stop - 1`` of ``seed``, in order.

    The first comes from ``replicate_rng(seed, start)``. Each later one is
    that same generator re-pointed at stream ``r``: the Philox counter of
    the state captured at its construction is set to ``r * 2**128`` (limbs
    0, 0, r mod 2**64, r >> 64) and assigned back, which also empties the
    buffered output. So replicate ``r`` draws exactly what
    ``replicate_rng(seed, r)`` draws, but a yielded generator is valid only
    until the next one is taken.
    """
    start, stop = as_int(start), as_int(stop)
    if stop <= start:
        return
    rng = replicate_rng(seed, start)
    bit_generator = rng.bit_generator
    state = bit_generator.state
    counter = state["state"]["counter"]
    yield rng
    for r in range(start + 1, stop):
        counter[2] = r & 0xFFFF_FFFF_FFFF_FFFF
        counter[3] = r >> 64
        bit_generator.state = state
        yield rng


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
