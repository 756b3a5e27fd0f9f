"""The chunked fan-out of ``_parallel.run_replicates``: one worker runs its
chunks in threads on the process's cores, and the result is the bytes of one
``worker(0, total)`` call for any core count."""

import os
import sys
import threading
from functools import partial

import numpy as np
import pytest

from fdchange import _parallel
from fdchange.errors import ConfigurationError
from fdchange.limitdist import (
    _tld_chunk,
    bridge_sq_kernel_eigenvalues,
    simulate_tld,
    wiener_eigenvalues,
)

from _references import tld_chunk_per_draw

#: The thread class before a spy replaces it, for threads the test starts.
_THREAD = threading.Thread

def _replicates(start: int, stop: int) -> np.ndarray:
    """A worker whose rows depend only on the replicate index."""
    r = np.arange(start, stop, dtype=float)
    return np.sqrt(r) + np.sin(r) / 3.0


class _Spy:
    """Records each ``(start, stop)`` call and each thread started."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[int, int]] = []
        self.started = 0
        self._lock = threading.Lock()
        spy = self

        class Thread(threading.Thread):
            def start(self):
                spy.started += 1
                super().start()

        monkeypatch.setattr(_parallel.threading, "Thread", Thread)

    def __call__(self, start: int, stop: int) -> np.ndarray:
        with self._lock:
            self.calls.append((start, stop))
        return _replicates(start, stop)


def _set_cores(monkeypatch, cores: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("total", [1, 7, 100, 401])
def test_threaded_run_is_one_call_bit_for_bit(monkeypatch, cores, total):
    _set_cores(monkeypatch, cores)
    spy = _Spy(monkeypatch)
    out = _parallel.run_replicates(spy, total)
    assert out.tobytes() == _replicates(0, total).tobytes()
    chunks = min(total, _parallel.CHUNKS_PER_WORKER * cores)
    if cores == 1 or chunks == 1:
        assert spy.calls == [(0, total)]
        assert spy.started == 0
        return
    # Contiguous chunks cover [0, total) once; the caller takes a share
    # itself, so one thread fewer than cores is started.
    spans = sorted(spy.calls)
    assert len(spans) == chunks
    assert spans[0][0] == 0 and spans[-1][1] == total
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert spy.started == min(cores, chunks) - 1


def test_cores_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _parallel._cores() == 3
    spy = _Spy(monkeypatch)
    out = _parallel.run_replicates(spy, 100)
    assert out.tobytes() == _replicates(0, 100).tobytes()
    assert len(spy.calls) == 12 and spy.started == 2


def test_every_chunk_runs_once_under_fast_thread_switching(monkeypatch):
    # More threads than cores, switching every microsecond: a chunk taken
    # twice or lost would show in the calls or the bytes.
    _set_cores(monkeypatch, 8)
    spy = _Spy(monkeypatch)
    result = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = _THREAD(
            target=lambda: result.update(out=_parallel.run_replicates(spy, 3001))
        )
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(spy.calls) == _parallel._chunks(3001, 32)
    assert spy.started == 7
    assert result["out"].tobytes() == _replicates(0, 3001).tobytes()


class ChunkFailure(RuntimeError):
    pass


@pytest.mark.parametrize("bad", [0, 50, 399])
def test_chunk_exception_propagates_with_its_type(monkeypatch, bad):
    _set_cores(monkeypatch, 3)

    def worker(start, stop):
        if start <= bad < stop:
            raise ChunkFailure(f"replicate {bad}")
        return _replicates(start, stop)

    before = threading.active_count()
    with pytest.raises(ChunkFailure, match=f"replicate {bad}"):
        _parallel.run_replicates(worker, 400)
    # Every started thread is joined before the exception is re-raised.
    assert threading.active_count() == before


def test_one_worker_law_is_one_chunk_call(monkeypatch):
    # Whatever the core count, the threaded draw is the sorted output of
    # the one-draw loop over every replicate.
    _set_cores(monkeypatch, 3)
    lam, nu = wiener_eigenvalues(9), bridge_sq_kernel_eigenvalues(9)
    law = simulate_tld(truncation=9, reps=1000, seed=41, workers=1)
    direct = tld_chunk_per_draw(41, lam, nu, 0, 1000)
    assert law.samples.tobytes() == np.sort(direct).tobytes()
    chunked = _parallel.run_replicates(partial(_tld_chunk, 41, lam, nu), 1000)
    assert chunked.tobytes() == direct.tobytes()


@pytest.mark.parametrize("cores", [3, 8])
@pytest.mark.parametrize("k, total", [(2, 1001), (49, 1001), (49, 4097), (250, 101)])
def test_threaded_blocks_match_the_per_draw_loop(monkeypatch, cores, k, total):
    # The chunks of 3 or 8 threads end inside a block; with threads switching
    # every microsecond, a block shared between calls would show in the bytes.
    _set_cores(monkeypatch, cores)
    lam, nu = wiener_eigenvalues(k), bridge_sq_kernel_eigenvalues(k)
    result = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = _THREAD(
            target=lambda: result.update(
                out=_parallel.run_replicates(partial(_tld_chunk, 8, lam, nu), total)
            )
        )
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert result["out"].tobytes() == tld_chunk_per_draw(8, lam, nu, 0, total).tobytes()


@pytest.mark.parametrize("total, workers", [(0, 1), (10, 0)])
def test_rejects_bad_counts(total, workers):
    with pytest.raises(ConfigurationError):
        _parallel.run_replicates(_replicates, total, workers)
