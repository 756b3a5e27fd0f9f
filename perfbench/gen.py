"""Deterministic benchmark inputs, keyed by the workload seed.

Every curve is an annual record observed on days 1..365. It is a seasonal
mean plus random amplitudes on twelve cosine modes (variances decaying by
0.64 per mode, so the leading eigenvalues are well separated) plus white
measurement noise. Mean changes live on the constant and sine modes, which
the noise does not use, so a change is unambiguous in direction.

The long record is conditioned so that its expected segmentation is
unambiguous: a constant-mean stretch whose reference statistic (see
reference.py) exceeds NULL_LIMIT for some tested d is redrawn. Without this a
correct program would split a stretch at the test's level, a few percent of
seeds, and the exact change-point check would fail on them.

Nothing here imports the package under test; the program sees only the CSV
files written below and its argv.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

import reference

DAYS = np.arange(1, 366)
NOISE_MODES = 12
NOISE_SD = 0.1
NA_FRACTION = 0.01

CPT_CURVES = 200
CPT_SHIFT = 1.5
LONG_CURVES = 600
LONG_SHIFTS = (3.0, 2.5)  # constant mode, then first sine mode
SEGMENT_D = (3, 4, 5, 6)

#: Upper 5% point of the cvm2d limit law (K=49, 100k replicates), well below
#: the 1% point 0.1100 that `segment --alpha 0.01` rejects beyond.
NULL_LIMIT = 0.0728
MAX_REDRAWS = 100


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def _times() -> np.ndarray:
    return (DAYS - 1.0) / 364.0


def _noise_curves(rng: np.random.Generator, n: int) -> np.ndarray:
    t = _times()
    modes = np.array(
        [math.sqrt(2.0) * np.cos(2.0 * np.pi * k * t) for k in range(1, NOISE_MODES + 1)]
    )
    sds = 0.8 ** np.arange(NOISE_MODES)
    seasonal = 10.0 - 8.0 * np.cos(2.0 * np.pi * t)
    amplitudes = rng.standard_normal((n, NOISE_MODES)) * sds
    white = NOISE_SD * rng.standard_normal((n, t.size))
    return seasonal + amplitudes @ modes + white


def _sine(k: int) -> np.ndarray:
    return math.sqrt(2.0) * np.sin(2.0 * np.pi * k * _times())


@dataclass(frozen=True)
class CptInput:
    path: str
    change_at: int  # number of curves before the change


@dataclass(frozen=True)
class LongInput:
    path: str
    first_half: str
    second_half: str
    change_at: tuple[int, int]  # curves before each change
    redraws: int


def _write_rows(path: str, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(str(int(d)) for d in DAYS) + "\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_long(path: str, values: np.ndarray, missing: np.ndarray, first_id: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("curve_id,t,value\n")
        for i, (row, gaps) in enumerate(zip(values, missing)):
            cid = f"c{first_id + i:04d}"
            for day, v, gap in zip(DAYS, row, gaps):
                fh.write(f"{cid},{day},{'NA' if gap else repr(float(v))}\n")


def make_cpt(seed: int, workdir: str) -> CptInput:
    """200 rows-layout curves with one constant-mode shift in the middle third."""
    rng = _rng(seed, "cpt")
    values = _noise_curves(rng, CPT_CURVES)
    change_at = int(rng.integers(70, 131))
    values[change_at:] += CPT_SHIFT
    path = os.path.join(workdir, "cpt_rows.csv")
    _write_rows(path, values)
    return CptInput(path, change_at)


def make_long(seed: int, workdir: str) -> LongInput:
    """600 long-layout curves with about 1% NA cells and two mean changes."""
    rng = _rng(seed, "long-record")
    first = int(rng.integers(220, 261))
    second = int(rng.integers(420, 461))
    values = np.empty((LONG_CURVES, DAYS.size))
    redraws = 0
    for lo, hi in ((0, first), (first, second), (second, LONG_CURVES)):
        while True:
            values[lo:hi] = _noise_curves(rng, hi - lo)
            stats = reference.cvm2d_statistics(values[lo:hi], max(SEGMENT_D))
            if max(stats[d - 1] for d in SEGMENT_D) <= NULL_LIMIT:
                break
            redraws += 1
            if redraws > MAX_REDRAWS:
                raise RuntimeError("could not draw constant-mean stretches below NULL_LIMIT")
    values[first:] += LONG_SHIFTS[0]
    values[second:] += LONG_SHIFTS[1] * _sine(1)
    missing = rng.random(values.shape) < NA_FRACTION
    path = os.path.join(workdir, "long.csv")
    half = LONG_CURVES // 2
    first_half = os.path.join(workdir, "long_first.csv")
    second_half = os.path.join(workdir, "long_second.csv")
    _write_long(path, values, missing, 0)
    _write_long(first_half, values[:half], missing[:half], 0)
    _write_long(second_half, values[half:], missing[half:], half)
    return LongInput(path, first_half, second_half, (first, second), redraws)
