"""Shared fixtures: reference distributions simulated once per session."""

from __future__ import annotations

import time

import pytest

from fdchange.limitdist import simulate_tld

#: Worker count for the limit-law fixtures and the Monte Carlo tests that call
#: ``run_replicates`` themselves. One process: every forked worker keeps
#: numpy's whole BLAS thread pool, so two workers on two cores ran four busy
#: BLAS threads and took the suite from about 3.5 to 6.5-7 minutes. The law's
#: draws are the same for any worker count; the tests that check that pass
#: ``workers=2`` themselves. ``run_size_power`` always runs in one process.
WORKERS = 1

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
