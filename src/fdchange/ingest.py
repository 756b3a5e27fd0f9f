"""CSV ingestion, Fourier least-squares smoothing, and sample export.

Two layouts are understood:

* ``rows``: a header of observation points ``t_0,...,t_{T-1}`` followed by one
  row of values per curve;
* ``long``: a header ``curve_id,t,value`` followed by one observation per row,
  curves ordered by first appearance.

``NA``, ``nan`` and blank cells are missing values; an infinite value or a
number beyond the float range is a ParseError that names its line and column.

With smoothing enabled each curve is fit by least squares on the Fourier
basis {1, sqrt(2) sin(2 pi k t), sqrt(2) cos(2 pi k t)} over t rescaled to
[0, 1] and re-evaluated on a uniform analysis grid. A t column consisting of
day-of-year integers is recognized: day 366 is dropped and day k maps to
(k - 1) / 364. One design matrix is built on the distinct pooled points, and
each curve's least-squares fit uses the rows of its own points, so a curve
gets the same bits as from a design of its own. With ``basis_size=None`` the
values are taken as-is on the header grid, whose points must run from 0 to
1; that round-trips ``write_sample_csv`` exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .curves import FunctionalSample, Grid
from .errors import ConfigurationError, ParseError

__all__ = [
    "IngestionConfig",
    "fourier_design",
    "ingest",
    "write_sample_csv",
]

FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True)
class IngestionConfig:
    """How to turn a CSV file into a FunctionalSample."""

    layout: str = "rows"  # "rows" | "long"
    basis_size: int | None = 49  # odd, >= 3; None disables smoothing
    grid_size: int = 365  # analysis grid points when smoothing
    missing: str = "drop"  # "drop" | "fail"

    def __post_init__(self) -> None:
        if self.layout not in ("rows", "long"):
            raise ConfigurationError(f"unknown layout {self.layout!r}")
        if self.missing not in ("drop", "fail"):
            raise ConfigurationError(f"unknown missing-value policy {self.missing!r}")
        if self.basis_size is not None:
            if self.basis_size < 3 or self.basis_size % 2 == 0:
                raise ConfigurationError(
                    f"basis_size must be odd and >= 3, got {self.basis_size}"
                )
            if self.grid_size < self.basis_size:
                raise ConfigurationError(
                    f"grid_size={self.grid_size} must be >= basis_size={self.basis_size}"
                )


def fourier_design(t: np.ndarray, basis_size: int) -> np.ndarray:
    """Design matrix of the first ``basis_size`` Fourier functions at points t."""
    if basis_size < 3 or basis_size % 2 == 0:
        raise ConfigurationError(f"basis_size must be odd and >= 3, got {basis_size}")
    t = np.asarray(t, dtype=float)
    design = np.empty((t.size, basis_size))
    design[:, 0] = 1.0
    root2 = math.sqrt(2.0)
    for k in range(1, (basis_size - 1) // 2 + 1):
        design[:, 2 * k - 1] = root2 * np.sin(2.0 * np.pi * k * t)
        design[:, 2 * k] = root2 * np.cos(2.0 * np.pi * k * t)
    return design


def _parse_float(cell: str, where: str) -> float:
    """Slow path of the cell parser, for cells that ``float`` rejects or reads
    as non-finite: ``NA``, blank and ``nan`` cells are missing (nan), and any
    other cell that is not a finite number is a ParseError at ``where``.

    The readers call ``float(cell)`` first and come here only for those cells,
    so ``where`` is formatted only for them.
    """
    value = cell.strip()
    if not value or value.lower() in ("na", "nan"):
        return math.nan
    try:
        number = float(value)
    except ValueError:
        raise ParseError(f"{where}: cannot parse {cell!r} as a number") from None
    if math.isinf(number):
        raise ParseError(f"{where}: non-finite number {cell!r}")
    return number


def _parse_row(cells: list[str], where) -> np.ndarray:
    """The cells of one CSV row as floats; ``where(i)`` names cell i in errors."""
    try:
        values = np.array([float(c) for c in cells])
    except ValueError:
        values = None
    if values is None or np.isinf(values).any():
        values = np.array([_parse_float(c, where(i)) for i, c in enumerate(cells)])
    return values


def _read_rows_layout(path: str) -> tuple[np.ndarray, list[np.ndarray]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        t = _parse_row(header, lambda i: f"{path}: header column {i}")
        if t.size < 2 or np.any(np.isnan(t)):
            raise ParseError(f"{path}: header must list at least 2 numeric observation points")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != t.size:
                raise ParseError(
                    f"{path}: curve {len(rows)} (line {line_no}) has {len(row)} values, "
                    f"expected {t.size}"
                )
            rows.append(_parse_row(row, lambda i: f"{path}: line {line_no}, column {i}"))
    if not rows:
        raise ParseError(f"{path}: no curves found")
    return t, rows


def _read_long_layout(path: str) -> tuple[list[str], list[np.ndarray], list[np.ndarray]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if len(header) != 3:
            raise ParseError(
                f"{path}: long layout needs exactly 3 columns (curve_id, t, value)"
            )
        ids: list[str] = []
        ts: list[list[float]] = []
        vs: list[list[float]] = []
        # Raw id cells and stripped ids both map to their curve, so each
        # distinct raw id is stripped once and " c1" joins "c1".
        curve_of: dict[str, int] = {}
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                if not row:
                    continue
                raise ParseError(f"{path}: line {line_no} has {len(row)} fields, expected 3")
            raw_id, t_cell, v_cell = row
            curve = curve_of.get(raw_id)
            if curve is None:
                cid = raw_id.strip()
                if not cid:
                    raise ParseError(f"{path}: line {line_no}: empty curve id")
                curve = curve_of.get(cid)
                if curve is None:
                    curve = curve_of[cid] = len(ids)
                    ids.append(cid)
                    ts.append([])
                    vs.append([])
                curve_of[raw_id] = curve
            try:
                t, v = float(t_cell), float(v_cell)
            except ValueError:  # NA, blank or malformed: the slow path below
                t = v = math.nan
            if not (math.isfinite(t) and math.isfinite(v)):
                t = _parse_float(t_cell, f"{path}: line {line_no}, t")
                v = _parse_float(v_cell, f"{path}: line {line_no}, value")
                if math.isnan(t):
                    raise ParseError(f"{path}: line {line_no}: missing observation point")
            ts[curve].append(t)
            vs[curve].append(v)
    if not ids:
        raise ParseError(f"{path}: no curves found")
    return ids, [np.array(t) for t in ts], [np.array(v) for v in vs]


def _looks_like_day_of_year(all_t: np.ndarray) -> bool:
    return bool(
        np.all(all_t == np.round(all_t)) and all_t.min() >= 1.0 and all_t.max() <= 366.0
        and all_t.max() > 1.0
    )


def _rescale_times(ts: list[np.ndarray], masks_values: list[np.ndarray]):
    """Map observation times to [0, 1]; drop day-366 entries when day-of-year."""
    pooled = np.concatenate(ts)
    if not pooled.size:  # no curve kept a point; the caller rejects them
        return list(ts), list(masks_values)
    if _looks_like_day_of_year(pooled):
        out_t, out_v = [], []
        for t, v in zip(ts, masks_values):
            keep = t < 366.0
            out_t.append((t[keep] - 1.0) / 364.0)
            out_v.append(v[keep])
        return out_t, out_v
    lo, hi = float(pooled.min()), float(pooled.max())
    if lo < 0.0 or hi > 1.0:
        if hi == lo:
            raise ParseError("observation points are all identical; cannot rescale")
        return [(t - lo) / (hi - lo) for t in ts], list(masks_values)
    return list(ts), list(masks_values)


def _smooth(
    labels: list[str],
    ts: list[np.ndarray],
    vs: list[np.ndarray],
    config: IngestionConfig,
) -> FunctionalSample:
    assert config.basis_size is not None
    cleaned_t, cleaned_v = [], []
    for i, (t, v) in enumerate(zip(ts, vs)):
        missing = np.isnan(v)
        if missing.any():
            if config.missing == "fail":
                raise ParseError(f"curve {labels[i]}: missing values present")
            t, v = t[~missing], v[~missing]
        cleaned_t.append(t)
        cleaned_v.append(v)
    cleaned_t, cleaned_v = _rescale_times(cleaned_t, cleaned_v)
    for i, t in enumerate(cleaned_t):
        if t.size < config.basis_size:
            raise ParseError(
                f"curve {labels[i]}: only {t.size} usable observations for "
                f"basis_size {config.basis_size}"
            )
    grid = Grid.uniform(config.grid_size)
    eval_design = fourier_design(grid.points, config.basis_size)
    # One design on the distinct pooled points, told apart by bit pattern, so
    # the rows a curve gathers are bitwise the rows of its own design.
    bits = np.unique(np.concatenate(cleaned_t).view(np.int64))
    design = fourier_design(bits.view(np.float64), config.basis_size)
    values = np.empty((len(cleaned_t), config.grid_size))
    for i, (t, v) in enumerate(zip(cleaned_t, cleaned_v)):
        rows = np.searchsorted(bits, t.view(np.int64))
        coef, *_ = np.linalg.lstsq(design[rows], v, rcond=None)
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            values[i] = eval_design @ coef
    overflowed = ~np.isfinite(values).all(axis=1)
    if overflowed.any():
        raise ParseError(
            f"curve {labels[int(np.argmax(overflowed))]}: values too large to smooth in float64"
        )
    return FunctionalSample(grid, values)


def _raw_grid(points: np.ndarray, what: str) -> Grid:
    """The grid of raw ingestion: ``points`` as given, which must run from 0 to 1."""
    if points.size < 2:
        raise ParseError(f"{what}: raw ingestion needs at least 2 of them")
    if np.any(np.diff(points) <= 0):
        raise ParseError(f"{what} must be strictly increasing")
    try:
        return Grid.from_points(points)
    except ValueError:
        raise ParseError(
            f"{what} run from {float(points[0])!r} to {float(points[-1])!r}; raw ingestion "
            "needs points in [0, 1] that start at 0 and end at 1, and does not rescale "
            "them (smoothing does)"
        ) from None


def ingest(path: str, config: IngestionConfig = IngestionConfig()) -> FunctionalSample:
    """Read curves from ``path`` according to ``config``."""
    if config.layout == "rows":
        t, rows = _read_rows_layout(path)
        labels = [str(i) for i in range(len(rows))]
        if config.basis_size is None:
            values = np.vstack(rows)
            if np.any(np.isnan(values)):
                bad = int(np.where(np.isnan(values).any(axis=1))[0][0])
                raise ParseError(
                    f"{path}: curve {bad} has missing values; raw ingestion needs a full matrix"
                )
            return FunctionalSample(_raw_grid(t, f"{path}: header points"), values)
        ts = [t.copy() for _ in rows]
        return _smooth(labels, ts, rows, config)
    labels, ts, vs = _read_long_layout(path)
    if config.basis_size is None:
        ref = ts[0]
        for cid, t in zip(labels, ts):
            if t.shape != ref.shape or np.any(t != ref):
                raise ParseError(
                    f"curve {cid}: raw long-layout ingestion needs identical t for every curve"
                )
        values = np.vstack(vs)
        if np.any(np.isnan(values)):
            raise ParseError("missing values present; raw ingestion needs a full matrix")
        return FunctionalSample(_raw_grid(ref, f"{path}: observation points"), values)
    return _smooth(labels, ts, vs, config)


def write_sample_csv(sample: FunctionalSample, path: str) -> None:
    """Rows-layout export with full float64 precision (re-ingests bitwise)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([FLOAT_FORMAT % t for t in sample.grid.points])
        for row in sample.values:
            writer.writerow([FLOAT_FORMAT % v for v in row])
