"""Deterministic chunked fan-out for the limit-law draws of ``limitdist``.

Its one package caller is ``simulate_tld``; the tests' Gaussian-sheet sampler
(``tests/_references.py``) uses it too. Each run splits [0, total) into
contiguous replicate chunks, and replicate r draws from its own ``(seed, r)``
stream (see ``_rng``), so the result is the same for any core count or
scheduling order.

The chunks run in threads on the process's cores: the calling thread and one
started thread per further core take chunks in turn. That pays only because
a caller's worker spends most of its time without the GIL, as ``_tld_chunk``
does inside numpy's normal fill, one call per replicate, and its arithmetic,
one call per block of replicates; a worker that holds the GIL would run its
chunks one after another, only slower. With one core it is a single
``worker(0, total)`` call.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = ["run_replicates"]

#: Chunks per core, so that a slow one holds up the end little.
CHUNKS_PER_CORE = 4


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _chunks(total: int, count: int) -> list[tuple[int, int]]:
    """At most ``count`` contiguous, non-empty, near-equal spans of [0, total)."""
    bounds = np.linspace(0, total, min(total, count) + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _run_threaded(
    worker: Callable[[int, int], np.ndarray], spans: list[tuple[int, int]], threads: int
) -> list[np.ndarray]:
    """Each span's result, in span order, from the caller and ``threads - 1``
    started threads taking spans in turn; the first exception is re-raised."""
    parts: list = [None] * len(spans)
    errors: list[BaseException] = []
    lock = threading.Lock()
    order = iter(range(len(spans)))

    def drain() -> None:
        while True:
            with lock:
                i = None if errors else next(order, None)
            if i is None:
                return
            try:
                parts[i] = worker(*spans[i])
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    started = [threading.Thread(target=drain, daemon=True) for _ in range(threads - 1)]
    for thread in started:
        thread.start()
    drain()
    for thread in started:
        thread.join()
    if errors:
        raise errors[0]
    return parts


def run_replicates(worker: Callable[[int, int], np.ndarray], total: int) -> np.ndarray:
    """Run ``worker(start, stop)`` over [0, total) and stack results in order.

    ``worker`` must return one row (or scalar entry) per replicate and be
    safe to call from several threads at once.
    """
    if total < 1:
        raise ConfigurationError(f"total replicates must be >= 1, got {total}")
    cores = _cores()
    spans = _chunks(total, CHUNKS_PER_CORE * cores)
    threads = min(cores, len(spans))
    if threads == 1:
        return np.asarray(worker(0, total))
    return np.concatenate(_run_threaded(worker, spans, threads), axis=0)
