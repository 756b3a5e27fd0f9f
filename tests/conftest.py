"""Shared fixtures: reference distributions simulated once per session."""

from __future__ import annotations

import time

import pytest

from fdchange.limitdist import simulate_tld

#: Worker count for the limit-law draws (``simulate_tld``) and the Gaussian-sheet
#: sampler of ``_references``, the only loops the tests fan out. Their draws
#: make almost no BLAS calls, so they fork well: ``critical-values`` took
#: 2.76-3.47 s with two workers against 2.78-3.30 s with one, which runs its
#: chunks in threads, on two cores; two keeps the forked path exercised.
#: Loops with an eigensolve per replicate run in one process (a forked worker
#: keeps numpy's whole BLAS thread pool); ``run_size_power`` always does. The
#: draws are the same for any worker count.
WORKERS = 2

#: Seed for every session-scoped reference distribution. Fixed so that all
#: frozen expectations in the suite refer to one reproducible simulation.
LAW_SEED = 20260814

#: Wall-clock seconds of session fixtures, recorded for runtime criteria.
TIMINGS: dict[str, float] = {}


@pytest.fixture(scope="session")
def law20k():
    """Reference law at unit-test fidelity (critical values good to ~4e-3)."""
    return simulate_tld(truncation=49, reps=20_000, seed=LAW_SEED, workers=WORKERS)


@pytest.fixture(scope="session")
def law100k():
    """Full-fidelity reference law used by the acceptance checks."""
    start = time.perf_counter()
    law = simulate_tld(truncation=49, reps=100_000, seed=LAW_SEED, workers=WORKERS)
    TIMINGS["law100k"] = time.perf_counter() - start
    return law
