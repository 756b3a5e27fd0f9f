"""CSV ingestion, Fourier least-squares smoothing, and sample export.

Two layouts are understood:

* ``rows``: a header of observation points ``t_0,...,t_{T-1}`` followed by one
  row of values per curve;
* ``long``: a header ``curve_id,t,value`` followed by one observation per row,
  curves ordered by first appearance.

Input is UTF-8 text, with or without a byte-order mark; other bytes, and a
cell longer than ``csv.field_size_limit()``, are a ParseError that names the
file. ``NA``, ``nan`` and blank cells are missing values; an infinite value or
a number beyond the float range is a ParseError that names its line and column.

The long layout is read by ``np.loadtxt``, ``BLOCK_CHARS`` characters of
whole lines at a time, into three flat columns (curve, t, value) sized once
from the file's line count, with no Python object kept per observation.
numpy's parser reads every cell, the exact value ``NA`` rewritten to ``nan``
first; ids are numbered once per run of equal raw ids, and only a block with
another missing spelling passes its value cells to Python. Curves whose
records are contiguous are views of those columns; interleaved ones are
grouped by one stable sort. A file the block reader cannot vouch for (a
malformed or missing ``t``, an infinite value, a blank id or one of
``ID_WIDTH`` characters or more, a wrong field count, a record over several
lines, an over-long line) is read again one record at a time, which gives
the same curves bit for bit or the ParseError.

With smoothing enabled each curve is fit by least squares on the Fourier
basis {1, sqrt(2) sin(2 pi k t), sqrt(2) cos(2 pi k t)} over t in [0, 1] and
re-evaluated on a uniform analysis grid. Observation points inside [0, 1] are
used as given; otherwise they are all mapped onto [0, 1] by their pooled
range, so days 1..365 land on (k - 1) / 364 and no point is dropped.
Smoothing works one block of ``BLOCK_CURVES`` curves at a time: it drops
their missing cells, builds one design matrix on their distinct points, and
fits each curve on the rows of its own points, so no cleaned or pooled copy
of all the observations is made. The fits of a block are one batched solve
of their normal equations, taken for a curve only when a Gershgorin
certificate bounds the condition number of its Gram matrix; it agrees with
per-curve least squares to about 1e-12 relative. Curves the
certificate rejects (rank-deficient or clustered points) get the minimum-norm
least-squares fit of their own design, bit for bit. Scaling the values by a
power of two scales the smoothed curves exactly.

With ``basis_size=None`` the values are taken as-is on the points every curve
shares, which must run from 0 to 1; that round-trips ``write_sample_csv``
exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
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
#: Input text encoding: UTF-8, with or without a byte-order mark.
ENCODING = "utf-8-sig"
#: Cells that mean a missing value once stripped and lower-cased.
MISSING_CELLS = ("", "na", "nan")

#: Curves per batched least-squares solve; bounds the (block, K, K) Gram stack
#: and the cleaned points, design and design rows built at a time.
BLOCK_CURVES = 64
#: Characters per ``np.loadtxt`` call of the long layout, rounded up to a
#: whole line; bounds the block's text and its (rows, 3) table.
BLOCK_CHARS = 1 << 15
#: Characters kept of a long-layout id by ``np.loadtxt``; a file with an id
#: this long or longer is read one record at a time.
ID_WIDTH = 16
#: Largest Gershgorin bound on the condition number of a curve's Gram matrix
#: X'X for which its normal equations are solved; the solve then agrees with
#: least squares to about CONDITION_BOUND * eps relative.
CONDITION_BOUND = 1e3


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


def _value_cell(cell: str) -> float:
    """A cell as a number: nan for a missing spelling (``MISSING_CELLS``, case
    and surrounding whitespace ignored), and ValueError for any other cell
    that ``float`` rejects."""
    try:
        return float(cell)
    except ValueError:
        if cell.strip().lower() in MISSING_CELLS:
            return math.nan
        raise


def _parse_float(cell: str, where: str) -> float:
    """Slow path of the cell parser, for cells that ``float`` rejects or reads
    as non-finite: ``_value_cell``, with a ParseError at ``where`` for a cell
    that is neither a number nor missing, or that is infinite.

    The readers call ``float(cell)`` first and come here only for those cells,
    so ``where`` is formatted only for them.
    """
    try:
        number = _value_cell(cell)
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


def _records(path: str):
    """The CSV records of ``path`` as ``(line, row)``, read as UTF-8 with an
    optional BOM; ``line`` is the file line the record ends on, so a quoted
    cell over several lines does not shift the lines of the records after it.

    A file that is not UTF-8, or a cell over ``csv.field_size_limit()``, is a
    ParseError that names the file.
    """
    with open(path, newline="", encoding=ENCODING) as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"
            ) from None


def _read_rows_layout(path: str) -> tuple[np.ndarray, list[np.ndarray]]:
    with contextlib.closing(_records(path)) as records:
        _, header = next(records, (1, None))
        if header is None:
            raise ParseError(f"{path}: empty file")
        t = _parse_row(header, lambda i: f"{path}: header column {i}")
        if t.size < 2 or np.any(np.isnan(t)):
            raise ParseError(f"{path}: header must list at least 2 numeric observation points")
        rows = []
        for line_no, row in records:
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


class _CurveNumbers(dict):
    """Curve numbers looked up by raw id cell: curves are stripped ids numbered
    by first appearance, listed in ``ids``. Raw id cells and stripped ids both
    map to their curve, so each distinct raw id is stripped once and " c1"
    joins "c1". A blank id raises ValueError."""

    def __init__(self) -> None:
        super().__init__()
        self.ids: list[str] = []

    def __missing__(self, raw_id: str) -> int:
        cid = raw_id.strip()
        if not cid:
            raise ValueError("empty curve id")
        curve = self.get(cid)
        if curve is None:
            curve = self[cid] = len(self.ids)
            self.ids.append(cid)
        self[raw_id] = curve
        return curve


def _read_long_records(path: str) -> tuple[list[str], list[np.ndarray], list[np.ndarray]]:
    """The long layout one record at a time: the reader of every file that
    ``_read_long_table`` leaves to it, and the judge of its errors."""
    with contextlib.closing(_records(path)) as records:
        _, header = next(records, (1, None))
        if header is None:
            raise ParseError(f"{path}: empty file")
        if len(header) != 3:
            raise ParseError(
                f"{path}: long layout needs exactly 3 columns (curve_id, t, value)"
            )
        curve_of = _CurveNumbers()
        ts: list[list[float]] = []
        vs: list[list[float]] = []
        for line_no, row in records:
            if len(row) != 3:
                if not row:
                    continue
                raise ParseError(f"{path}: line {line_no} has {len(row)} fields, expected 3")
            raw_id, t_cell, v_cell = row
            try:
                curve = curve_of[raw_id]
            except ValueError:
                raise ParseError(f"{path}: line {line_no}: empty curve id") from None
            if curve == len(ts):
                ts.append([])
                vs.append([])
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
    if not ts:
        raise ParseError(f"{path}: no curves found")
    return curve_of.ids, [np.array(t) for t in ts], [np.array(v) for v in vs]


#: Line-break bytes mapped to ``\n``, NUL and the separators 0x1c-0x1f to
#: ``s``, and every other byte to ``x``. numpy's float parser strips those
#: separators as whitespace (``str.isspace`` holds for them) where ``float``
#: rejects them, and numpy's strings drop a trailing NUL that csv keeps.
_BREAKS = bytes(
    10 if b in b"\r\n" else 115 if b == 0 or 0x1C <= b <= 0x1F else 120 for b in range(256)
)


def _text_lines(path: str, limit: int) -> int | None:
    """The number of non-blank lines of ``path``, split at ``\n``, ``\r\n``
    and ``\r`` as Python's file iteration splits them; None when the file
    holds a byte 0x00 or 0x1c-0x1f, or when a run of more than ``limit``
    bytes holds no line break.

    Such a run may hold a cell over csv's field limit. Every run that long
    covers one whole aligned block of ``limit // 2 + 1`` bytes, so one
    ``find`` per block decides it.
    """
    block = min(limit // 2 + 1, 1 << 20)
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(block * max(1, (1 << 20) // block)):
            marks = last + chunk.translate(_BREAKS)
            if b"s" in marks:
                return None
            for start in range(1, len(marks) - block + 1, block):
                if marks.find(b"\n", start, start + block) < 0:
                    return None
            # Line starts that are not a break: a "\n" then an "x", the one
            # pair of marks that rises (10 < 120).
            codes = np.frombuffer(marks, dtype=np.uint8)
            lines += int(np.count_nonzero(codes[1:] > codes[:-1]))
            last = marks[-1:]
    return lines


#: A record appended to every block of the table reader and dropped from its
#: rows. Where a block edge cuts a record over several lines, numpy would
#: close the record's open quoted cell at the edge and read both parts as
#: records; this one lands inside that cell instead, which then fails to parse.
_BLOCK_END = "\n_,0,0\n"


def _parse_block(text: str) -> np.ndarray:
    """The records of ``text`` as rows (raw id, t, value), ``_BLOCK_END``'s
    row included, through numpy's parser, with the exact cell ``NA`` before
    a line break read as nan. A block that parser rejects (a value cell such
    as ``na``, `` NA ``, a blank or ``1_0``, or any fault) is parsed again
    with its value cells through ``_value_cell``; a ValueError from that
    parse leaves the file to ``_read_long_records``."""
    text = text.replace(",NA\n", ",nan\n")
    if "\r" in text:  # a scan for one character costs far less than a replace
        text = text.replace(",NA\r", ",nan\r")
    options = dict(
        dtype=[("id", f"U{ID_WIDTH}"), ("t", "f8"), ("v", "f8")],
        delimiter=",", quotechar='"', comments=None, ndmin=1,
    )
    try:
        return np.loadtxt(io.StringIO(text, newline=""), **options)
    except ValueError:
        return np.loadtxt(
            io.StringIO(text, newline=""), converters={2: _value_cell}, **options
        )


def _read_long_table(path: str):
    """The long layout through ``np.loadtxt``, one block of about
    ``BLOCK_CHARS`` characters of whole lines at a time, into three flat
    columns sized once: curve, t and value.

    numpy's parser reads every cell: ``t`` and values as ``float`` does
    (it strips the whitespace ``str.strip`` strips), ids as raw strings of
    at most ``ID_WIDTH`` characters. Only the first id of each run of equal
    raw ids goes through ``_CurveNumbers``, and only a block with a value
    cell numpy rejects goes through ``_value_cell`` (see ``_parse_block``),
    so ids and bits match ``_read_long_records`` and no Python object per
    cell is kept. Returns None for a file whose verdict belongs to
    ``_read_long_records``: a block that both parses reject (a field count
    other than 3, a cell such as ``1_0`` or ``NA`` in ``t``, bytes that are
    not UTF-8), an id that is blank once stripped or that fills
    ``ID_WIDTH`` (numpy would cut a longer one), a byte 0x00 or 0x1c-0x1f
    (numpy would drop a trailing NUL from an id, or strip a separator from
    ``t`` as whitespace, where csv and ``float`` keep them), a non-finite
    ``t``, an infinite value, a header that is not one 3-field line, a line
    longer than csv's field limit, or a record over several lines (each may
    be short while one of its cells is over that limit). The last two show
    as fewer records than non-blank lines after the header, as a record
    over several lines has at least two that are not blank.

    Curves whose records are contiguous come back as views of the columns;
    interleaved ones are grouped by one stable sort.
    """
    lines = _text_lines(path, csv.field_size_limit())
    if lines is None or lines < 2:
        return None
    records = lines - 1  # one line for the header, one per record
    curve_of = _CurveNumbers()
    curve = np.empty(records, dtype=np.intp)
    t = np.empty(records)
    v = np.empty(records)
    filled = 0
    try:
        with open(path, newline="", encoding=ENCODING) as fh:
            header = next(csv.reader(fh), None)  # over several lines: the count below
            if header is None or len(header) != 3:
                return None
            while text := fh.read(BLOCK_CHARS):
                # Whole lines, then _BLOCK_END, whose row is dropped.
                rows = _parse_block("".join((text, fh.readline(), _BLOCK_END)))[:-1]
                stop = filled + rows.size
                if stop > records:
                    return None
                # numpy may have cut an id that fills its field, the row's
                # first ID_WIDTH code points: its last one is not NUL.
                if rows.view(np.uint32).reshape(-1, rows.itemsize // 4)[:, ID_WIDTH - 1].any():
                    return None
                if not np.isfinite(rows["t"]).all() or np.isinf(rows["v"]).any():
                    return None
                ids = rows["id"]
                first = np.ones(rows.size, dtype=bool)  # where a run of raw ids starts
                first[1:] = ids[1:] != ids[:-1]
                starts = np.flatnonzero(first)
                numbers = [curve_of[raw] for raw in ids[starts].tolist()]
                curve[filled:stop] = np.repeat(numbers, np.diff(starts, append=rows.size))
                t[filled:stop] = rows["t"]
                v[filled:stop] = rows["v"]
                filled = stop
    except (ValueError, csv.Error):
        return None
    if filled != records:
        return None
    bounds = np.cumsum(np.bincount(curve, minlength=len(curve_of.ids)))[:-1]
    if (curve[1:] < curve[:-1]).any():  # interleaved ids
        order = np.argsort(curve, kind="stable")  # each curve keeps its row order
        t, v = t[order], v[order]
    return curve_of.ids, np.split(t, bounds), np.split(v, bounds)


def _read_long_layout(path: str) -> tuple[list[str], list[np.ndarray], list[np.ndarray]]:
    table = _read_long_table(path)
    return _read_long_records(path) if table is None else table


def _rescale_times(path: str, lo: float, hi: float) -> tuple[float, float]:
    """The map ``t -> (t - lo) / span`` of observation points onto [0, 1], as
    ``(lo, span)``, from their pooled range [lo, hi]. Points that already lie
    inside [0, 1] (or none at all) get ``(0.0, 1.0)``, which leaves every
    finite point bit for bit as given."""
    if 0.0 <= lo and hi <= 1.0:
        return 0.0, 1.0
    if hi == lo:
        raise ParseError(f"{path}: observation points are all identical; cannot rescale")
    if not math.isfinite(hi - lo):
        raise ParseError(
            f"{path}: observation points run from {lo!r} to {hi!r}; the span overflows float64"
        )
    return lo, hi - lo


def _usable(t: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A curve's points and values without its missing values."""
    missing = np.isnan(v)
    if not missing.any():
        return t, v
    return t[~missing], v[~missing]


def _normal_equation_fit(
    design: np.ndarray, rows: list[np.ndarray], values: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients of a block of curves by their normal equations.

    Curve j has design rows X = ``design[rows[j]]`` and values v, and its
    coefficients solve X'X c = X'v; one ``np.linalg.solve`` takes the whole
    block. Each v is divided by the power of two above max|v| and c is
    multiplied back, both exact, so X'v cannot overflow or underflow and
    values scaled by 2^k give c scaled by exactly 2^k.

    A curve is solved only when Gershgorin's discs bound the condition number
    of its X'X by CONDITION_BOUND. Returns the coefficients, one row per curve
    and zeros for the curves not solved, and which curves were solved.
    """
    size = design.shape[1]
    gram = np.empty((len(rows), size, size))
    rhs = np.empty((len(rows), size))
    radius = np.empty((len(rows), size))
    exponent = np.empty(len(rows), dtype=int)
    for j, (r, v) in enumerate(zip(rows, values)):
        x = design[r]
        np.matmul(x.T, x, out=gram[j])
        radius[j] = np.abs(gram[j]).sum(axis=1)
        exponent[j] = np.frexp(np.abs(v).max())[1]
        rhs[j] = np.ldexp(v, -exponent[j]) @ x
    diag = np.diagonal(gram, axis1=1, axis2=2)
    radius -= diag
    lo = (diag - radius).min(axis=1)
    hi = (diag + radius).max(axis=1)
    certified = (lo > 0) & (hi <= CONDITION_BOUND * lo)
    # The whole stack, not a boolean-indexed copy, when every curve is solved.
    pick = slice(None) if certified.all() else certified
    solved = np.linalg.solve(gram[pick], rhs[pick, :, None])[..., 0]
    coef = np.zeros((len(rows), size))
    coef[pick] = np.ldexp(solved, exponent[pick, None])
    return coef, certified


def _smooth(
    path: str,
    labels: list[str],
    ts: list[np.ndarray],
    vs: list[np.ndarray],
    config: IngestionConfig,
) -> FunctionalSample:
    """Fourier least-squares fits of the curves, re-evaluated on the analysis
    grid. Missing cells are dropped, and points rescaled, one block of
    curves at a time, so no cleaned copy of all the observations is made."""
    size = config.basis_size
    assert size is not None
    lo, hi = math.inf, -math.inf
    counts = []
    for label, t, v in zip(labels, ts, vs):
        usable = ~np.isnan(v)
        count = np.count_nonzero(usable)
        if count < t.size and config.missing == "fail":
            raise ParseError(f"{path}: curve {label}: missing values present")
        counts.append(count)
        if count:
            low = t.min(where=usable, initial=math.inf)
            if low == 0:
                # where= may settle a tie of 0.0 and -0.0 the other way than
                # a min over the usable points alone; the sign reaches the
                # offset below, so only then are those points gathered.
                low = t[usable].min()
            high = t.max(where=usable, initial=-math.inf)
            lo, hi = min(lo, float(low)), max(hi, float(high))
    offset, span = _rescale_times(path, lo, hi)
    for label, count in zip(labels, counts):
        if count < size:
            raise ParseError(
                f"{path}: curve {label}: only {count} usable observations for "
                f"basis_size {size}"
            )
    grid = Grid.uniform(config.grid_size)
    eval_design = fourier_design(grid.points, size)
    coef = np.empty((len(ts), size))
    fallback = {}
    bits = design = None
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        for start in range(0, len(ts), BLOCK_CURVES):
            block = slice(start, start + BLOCK_CURVES)
            cleaned = [_usable(t, v) for t, v in zip(ts[block], vs[block])]
            block_t = [(t - offset) / span for t, _ in cleaned]
            block_v = [v for _, v in cleaned]
            # One design on the block's distinct points, told apart by bit
            # pattern, so the rows a curve gathers are bitwise the rows of
            # its own design; the previous block's when the points are its.
            block_bits = np.unique(np.concatenate(block_t).view(np.int64))
            if bits is None or not np.array_equal(block_bits, bits):
                bits = block_bits
                design = fourier_design(bits.view(np.float64), size)
            rows = [np.searchsorted(bits, t.view(np.int64)) for t in block_t]
            coef[block], certified = _normal_equation_fit(design, rows, block_v)
            # Curves the certificate cannot vouch for (rank-deficient or
            # clustered points) keep the minimum-norm least-squares fit.
            for j in np.flatnonzero(~certified):
                fallback[start + j], *_ = np.linalg.lstsq(
                    design[rows[j]], block_v[j], rcond=None
                )
        # One product over every curve: per block it would change the bits.
        values = coef @ eval_design.T
        for i, fit in fallback.items():
            values[i] = eval_design @ fit
    overflowed = ~np.isfinite(values).all(axis=1)
    if overflowed.any():
        raise ParseError(
            f"{path}: curve {labels[int(np.argmax(overflowed))]}: values too large to smooth "
            "in float64"
        )
    return FunctionalSample(grid, values)


def _raw_grid(points: np.ndarray, what: str) -> Grid:
    """The grid of raw ingestion: ``points`` as given, which must run from 0 to 1."""
    if points.size < 2:
        raise ParseError(f"{what}: raw ingestion needs at least 2 of them")
    if np.any(np.diff(points) <= 0):
        raise ParseError(f"{what} must be strictly increasing")
    try:
        return Grid(points)
    except ValueError:
        raise ParseError(
            f"{what} run from {float(points[0])!r} to {float(points[-1])!r}; raw ingestion "
            "needs points in [0, 1] that start at 0 and end at 1, and does not rescale "
            "them (smoothing does)"
        ) from None


def _raw_sample(
    path: str, labels: list[str], ts: list[np.ndarray], vs: list[np.ndarray]
) -> FunctionalSample:
    """The curves as given, which must share their points and miss no value."""
    ref = ts[0]
    for label, t in zip(labels, ts):
        if t.shape != ref.shape or np.any(t != ref):
            raise ParseError(
                f"{path}: curve {label}: raw ingestion needs identical t for every curve"
            )
    values = np.vstack(vs)
    missing = np.isnan(values).any(axis=1)
    if missing.any():
        raise ParseError(
            f"{path}: curve {labels[int(np.argmax(missing))]} has missing values; "
            "raw ingestion needs a full matrix"
        )
    return FunctionalSample(_raw_grid(ref, f"{path}: observation points"), values)


def ingest(path: str, config: IngestionConfig = IngestionConfig()) -> FunctionalSample:
    """Read curves from ``path`` according to ``config``."""
    if config.layout == "rows":
        t, rows = _read_rows_layout(path)
        labels, ts, vs = [str(i) for i in range(len(rows))], [t] * len(rows), rows
    else:
        labels, ts, vs = _read_long_layout(path)
    if config.basis_size is None:
        return _raw_sample(path, labels, ts, vs)
    return _smooth(path, labels, ts, vs, config)


def write_sample_csv(sample: FunctionalSample, path: str) -> None:
    """Rows-layout export with full float64 precision (re-ingests bitwise)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([FLOAT_FORMAT % t for t in sample.grid.points])
        for row in sample.values:
            writer.writerow([FLOAT_FORMAT % v for v in row])
