"""Shared fixtures: reference distributions simulated once per session."""

from __future__ import annotations

import os
import time

import pytest

from fdchange.limitdist import simulate_tld

#: Worker count for the heavier Monte Carlo fixtures and tests.
WORKERS = min(4, os.cpu_count() or 1)

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
