"""CSV ingestion: layouts, Fourier smoothing, rescaling, and export."""

import csv
import importlib
import pathlib
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdchange.curves import Grid
from fdchange.errors import ConfigurationError, ParseError
from fdchange.ingest import (
    IngestionConfig,
    _read_long_layout,
    _read_long_records,
    _read_long_table,
    fourier_design,
    ingest,
    write_sample_csv,
)
from fdchange.simulation import generate_bm_sample

#: The module itself; ``fdchange.ingest`` the attribute is the function.
INGEST = importlib.import_module("fdchange.ingest")


def in_span_curve(t, coefs):
    """Evaluate a function lying exactly in the Fourier span."""
    return fourier_design(np.asarray(t, dtype=float), len(coefs)) @ np.asarray(coefs)


def write_rows(path, t, values):
    lines = [",".join(f"{x:.17g}" for x in t)]
    lines += [",".join(f"{x:.17g}" for x in row) for row in np.atleast_2d(values)]
    path.write_text("\n".join(lines) + "\n")


def write_long(path, t, values):
    lines = ["curve_id,t,value"]
    for i, row in enumerate(np.atleast_2d(values)):
        for tj, vj in zip(t, row):
            lines.append(f"c{i},{tj:.17g},{vj:.17g}")
    path.write_text("\n".join(lines) + "\n")


class TestFourierDesign:
    def test_structure(self):
        t = np.linspace(0.0, 1.0, 7)
        design = fourier_design(t, 5)
        assert design.shape == (7, 5)
        assert np.all(design[:, 0] == 1.0)
        assert np.allclose(design[:, 1], np.sqrt(2) * np.sin(2 * np.pi * t))
        assert np.allclose(design[:, 4], np.sqrt(2) * np.cos(4 * np.pi * t))

    def test_continuous_orthonormality(self):
        t = np.linspace(0.0, 1.0, 4001)
        w = np.full(4001, 1 / 4000.0)
        w[[0, -1]] /= 2
        design = fourier_design(t, 9)
        gram = (design * w[:, None]).T @ design
        assert np.allclose(gram, np.eye(9), atol=1e-6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fourier_design(np.linspace(0, 1, 5), 4)
        with pytest.raises(ConfigurationError):
            fourier_design(np.linspace(0, 1, 5), 1)


class TestSmoothingReconstruction:
    def test_in_span_curves_recovered(self, tmp_path):
        rng = np.random.default_rng(42)
        t = np.sort(rng.uniform(0.0, 1.0, 60))
        t[0], t[-1] = 0.0, 1.0
        coefs = rng.standard_normal((3, 7))
        values = np.array([in_span_curve(t, c) for c in coefs])
        path = tmp_path / "span.csv"
        write_rows(path, t, values)
        sample = ingest(str(path), IngestionConfig(basis_size=7, grid_size=120))
        truth = np.array([in_span_curve(sample.grid.points, c) for c in coefs])
        assert np.max(np.abs(sample.values - truth)) < 1e-8

    def test_constant_curve_exact(self, tmp_path):
        t = np.linspace(0.0, 1.0, 40)
        path = tmp_path / "const.csv"
        write_rows(path, t, np.full((2, 40), 3.25))
        sample = ingest(str(path), IngestionConfig(basis_size=5, grid_size=80))
        assert np.max(np.abs(sample.values - 3.25)) < 1e-10

    def test_white_noise_energy_matches_basis_fraction(self, tmp_path):
        # Fitting pure noise keeps about basis_size/T of the unit variance:
        # the integrated square of the fit estimates trace((D'D)^{-1}) ~ 49/365.
        rng = np.random.default_rng(7)
        days = np.arange(1, 366)
        noise = rng.standard_normal((200, 365))
        path = tmp_path / "noise.csv"
        write_rows(path, days, noise)
        sample = ingest(str(path), IngestionConfig(basis_size=49, grid_size=365))
        energy = float(np.mean(np.sum(sample.grid.weights * sample.values**2, axis=1)))
        assert energy == pytest.approx(49.0 / 365.0, rel=0.10)

    def test_rows_and_long_layouts_agree(self, tmp_path):
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 1.0, 30)
        values = rng.standard_normal((4, 30))
        rows_path, long_path = tmp_path / "r.csv", tmp_path / "l.csv"
        write_rows(rows_path, t, values)
        write_long(long_path, t, values)
        a = ingest(str(rows_path), IngestionConfig(basis_size=5, grid_size=50))
        b = ingest(str(long_path), IngestionConfig(layout="long", basis_size=5, grid_size=50))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.grid.points, b.grid.points)


class TestRescaling:
    def test_leap_day_kept_on_the_pooled_range(self, tmp_path):
        # Days 1..366 are mapped by their pooled range: day k lands on
        # (k-1)/365 for both curves, and c0's day-366 record is kept.
        coefs = np.array([0.5, -1.0, 2.0, 0.25, -0.75])
        days = np.arange(1, 367)
        values = in_span_curve((days - 1) / 365.0, coefs)
        observations = [("c0", str(d), f"{v:.17g}") for d, v in zip(days, values)]
        observations += [("c1", str(d), f"{-2.0 * v:.17g}") for d, v in zip(days[:-1], values)]
        path = tmp_path / "days.csv"
        write_long_cells(path, observations)
        sample = ingest(str(path), IngestionConfig(layout="long", basis_size=5, grid_size=100))
        truth = in_span_curve(sample.grid.points, coefs)
        assert np.max(np.abs(sample.values[0] - truth)) < 1e-8
        assert np.max(np.abs(sample.values[1] + 2.0 * truth)) < 1e-8

    @pytest.mark.parametrize("layout", ["rows", "long"])
    def test_days_equal_their_unit_interval_points_bitwise(self, tmp_path, layout):
        # Days 1..365 map to (k-1)/364 exactly: the file equals, as a sample,
        # the same file with those points written out in [0, 1].
        rng = np.random.default_rng(105)
        days = np.arange(1, 366)
        values = rng.standard_normal((4, days.size))
        values[rng.random(values.shape) < 0.05] = np.nan
        write = write_rows if layout == "rows" else write_long
        day_path, unit_path = tmp_path / "days.csv", tmp_path / "unit.csv"
        write(day_path, days, values)
        write(unit_path, (days - 1.0) / 364.0, values)
        config = IngestionConfig(layout=layout, basis_size=15, grid_size=100)
        a, b = ingest(str(day_path), config), ingest(str(unit_path), config)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.grid.points, b.grid.points)

    def test_generic_interval_rescaled_to_unit(self, tmp_path):
        coefs = np.array([1.0, 0.5, -0.5])
        raw_t = np.linspace(5.0, 25.0, 50)
        values = in_span_curve((raw_t - 5.0) / 20.0, coefs)
        path = tmp_path / "interval.csv"
        write_long(path, raw_t, np.vstack([values, values + 1.0]))
        sample = ingest(str(path), IngestionConfig(layout="long", basis_size=3, grid_size=60))
        truth = in_span_curve(sample.grid.points, coefs)
        assert np.max(np.abs(sample.values[0] - truth)) < 1e-8
        assert np.max(np.abs(sample.values[1] - truth - 1.0)) < 1e-8

    def test_unit_interval_left_alone(self, tmp_path):
        # Points already inside [0, 1] are used as-is (no stretch to the ends).
        t = np.linspace(0.2, 0.8, 40)
        coefs = np.array([0.0, 1.0, 1.0])
        path = tmp_path / "unit.csv"
        write_rows(path, t, np.tile(in_span_curve(t, coefs), (2, 1)))
        sample = ingest(str(path), IngestionConfig(basis_size=3, grid_size=50))
        truth = in_span_curve(sample.grid.points, coefs)
        assert np.max(np.abs(sample.values[0] - truth)) < 1e-8


class TestMissingValues:
    def test_drop_policy_fits_remaining_points(self, tmp_path):
        t = np.linspace(0.0, 1.0, 30)
        coefs = np.array([1.0, -0.5, 0.75, 0.2, -0.3])
        clean = [f"{v:.17g}" for v in in_span_curve(t, coefs)]
        row = list(clean)
        row[7] = "na"
        row[19] = "NaN"
        path = tmp_path / "holes.csv"
        path.write_text(
            ",".join(f"{x:.17g}" for x in t)
            + "\n" + ",".join(row) + "\n" + ",".join(clean) + "\n"
        )
        sample = ingest(str(path), IngestionConfig(basis_size=5, grid_size=50))
        truth = in_span_curve(sample.grid.points, coefs)
        assert np.max(np.abs(sample.values - truth)) < 1e-8

    def test_fail_policy_raises(self, tmp_path):
        t = np.linspace(0.0, 1.0, 30)
        clean = [f"{v:.17g}" for v in np.sin(t)]
        row = list(clean)
        row[3] = ""
        path = tmp_path / "holes.csv"
        path.write_text(
            ",".join(f"{x:.17g}" for x in t)
            + "\n" + ",".join(row) + "\n" + ",".join(clean) + "\n"
        )
        with pytest.raises(ParseError, match="missing"):
            ingest(str(path), IngestionConfig(basis_size=5, grid_size=50, missing="fail"))

    def test_too_few_points_after_dropping(self, tmp_path):
        t = np.linspace(0.0, 1.0, 6)
        row = ["1.0", "2.0", "na", "na", "na", "1.5"]
        full = ["1.0"] * 6
        path = tmp_path / "thin.csv"
        path.write_text(
            ",".join(f"{x:.17g}" for x in t)
            + "\n" + ",".join(row) + "\n" + ",".join(full) + "\n"
        )
        with pytest.raises(ParseError, match="only 3 usable"):
            ingest(str(path), IngestionConfig(basis_size=5, grid_size=50))


class TestRawIngestion:
    def test_round_trip_is_bitwise(self, tmp_path):
        sample = generate_bm_sample(8, 64, seed=11)
        path = tmp_path / "dump.csv"
        write_sample_csv(sample, str(path))
        back = ingest(str(path), IngestionConfig(basis_size=None))
        assert np.array_equal(back.values, sample.values)
        assert np.array_equal(back.grid.points, sample.grid.points)
        write_sample_csv(back, str(tmp_path / "dump2.csv"))
        assert (tmp_path / "dump2.csv").read_bytes() == path.read_bytes()

    def test_non_uniform_header_preserved(self, tmp_path):
        t = np.array([0.0, 0.1, 0.15, 0.4, 1.0])
        values = np.arange(10.0).reshape(2, 5)
        path = tmp_path / "raw.csv"
        write_rows(path, t, values)
        back = ingest(str(path), IngestionConfig(basis_size=None))
        assert np.array_equal(back.grid.points, t)
        assert np.array_equal(back.values, values)

    def test_raw_long_layout_needs_common_grid(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(
            "curve_id,t,value\nA,0.0,1.0\nA,0.5,2.0\nA,1.0,3.0\n"
            "B,0.0,1.0\nB,0.6,2.0\nB,1.0,3.0\n"
        )
        with pytest.raises(ParseError, match="identical t"):
            ingest(str(path), IngestionConfig(layout="long", basis_size=None))

    def test_raw_rejects_missing_and_unordered(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5,1.0\n1.0,na,2.0\n")
        with pytest.raises(ParseError, match="missing"):
            ingest(str(path), IngestionConfig(basis_size=None))
        path.write_text("0.0,1.0,0.5\n1.0,2.0,3.0\n")
        with pytest.raises(ParseError, match="strictly increasing"):
            ingest(str(path), IngestionConfig(basis_size=None))


class TestParseErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        for layout in ("rows", "long"):
            for basis_size in (49, None):
                config = IngestionConfig(layout=layout, basis_size=basis_size)
                with pytest.raises(ParseError) as caught:
                    ingest(str(path), config)
                assert str(caught.value) == f"{path}: empty file"

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.0,0.5,1.0\n1.0,2.0,3.0\n4.0,5.0\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest(str(path), IngestionConfig(basis_size=None))

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("0.0,0.5,1.0\n1.0,two,3.0\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest(str(path), IngestionConfig(basis_size=None))

    def test_long_layout_column_count(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("curve_id,t,value,extra\nA,0.0,1.0,9\n")
        with pytest.raises(ParseError, match="3 columns"):
            ingest(str(path), IngestionConfig(layout="long"))
        path.write_text("curve_id,t,value\nA,0.0\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest(str(path), IngestionConfig(layout="long"))

    def test_long_layout_missing_t_and_blank_id(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("curve_id,t,value\nA,,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest(str(path), IngestionConfig(layout="long"))
        path.write_text("curve_id,t,value\n,0.5,1.0\n")
        with pytest.raises(ParseError, match="empty curve id"):
            ingest(str(path), IngestionConfig(layout="long"))

    def test_no_curves(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("0.0,0.5,1.0\n")
        with pytest.raises(ParseError, match="no curves"):
            ingest(str(path), IngestionConfig(basis_size=None))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"layout": "cols"},
            {"basis_size": 4},
            {"basis_size": 1},
            {"basis_size": 49, "grid_size": 20},
            {"missing": "impute"},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            IngestionConfig(**kwargs)


def per_curve_fit(curves, basis_size, grid_size):
    """Smoothing as a per-curve algorithm: each curve's own Fourier design and
    least-squares fit, evaluated on the analysis grid. Ingestion solves the
    normal equations of a block of curves at once and must agree with these
    values to LSQ_RTOL; curves it leaves to least squares match bit for bit."""
    eval_design = fourier_design(Grid.uniform(grid_size).points, basis_size)
    values = np.empty((len(curves), grid_size))
    for i, (t, v) in enumerate(curves):
        coef, *_ = np.linalg.lstsq(fourier_design(t, basis_size), v, rcond=None)
        values[i] = eval_design @ coef
    return values


#: Stated agreement of smoothing with per-curve least squares, relative to
#: each value and to the largest reference value.
LSQ_RTOL = 1e-12


def assert_matches_least_squares(values, reference):
    np.testing.assert_allclose(
        values, reference, rtol=LSQ_RTOL, atol=LSQ_RTOL * np.max(np.abs(reference))
    )


def write_long_cells(path, observations):
    """Long-layout file from (curve_id, t_cell, value_cell) string triples."""
    path.write_text("curve_id,t,value\n" + "".join(f"{c},{t},{v}\n" for c, t, v in observations))


class TestPooledDesignBitIdentity:
    """The pooled design gathers exactly the rows of every per-curve design, so
    the fits agree with per-curve least squares to the stated tolerance."""

    def test_long_file_with_missing_cells(self, tmp_path):
        rng = np.random.default_rng(101)
        t = np.linspace(0.0, 1.0, 40)
        values = rng.standard_normal((6, t.size))
        holes = rng.random(values.shape) < 0.08
        observations, curves = [], []
        for i, (row, gaps) in enumerate(zip(values, holes)):
            for tj, vj, gap in zip(t, row, gaps):
                observations.append((f"c{i}", f"{tj:.17g}", "NA" if gap else f"{vj:.17g}"))
            curves.append((t[~gaps], row[~gaps]))
        path = tmp_path / "holes.csv"
        write_long_cells(path, observations)
        sample = ingest(str(path), IngestionConfig(layout="long", basis_size=9, grid_size=50))
        assert_matches_least_squares(sample.values, per_curve_fit(curves, 9, 50))

    def test_long_file_with_irregular_times_and_a_repeated_point(self, tmp_path):
        # Times on [2.5, 7.5] (not day-like) are rescaled with the pooled
        # minimum and maximum before fitting.
        rng = np.random.default_rng(102)
        raw = [np.sort(rng.uniform(2.5, 7.5, n)) for n in (25, 31, 18, 40)]
        raw[2] = np.sort(np.append(raw[2], raw[2][5]))  # the same t twice in one curve
        values = [rng.standard_normal(t.size) for t in raw]
        observations = [
            (f"c{i}", f"{tj:.17g}", f"{vj:.17g}")
            for i, (t, v) in enumerate(zip(raw, values))
            for tj, vj in zip(t, v)
        ]
        path = tmp_path / "irregular.csv"
        write_long_cells(path, observations)
        pooled = np.concatenate(raw)
        lo, hi = float(pooled.min()), float(pooled.max())
        curves = [((t - lo) / (hi - lo), v) for t, v in zip(raw, values)]
        sample = ingest(str(path), IngestionConfig(layout="long", basis_size=7, grid_size=60))
        assert_matches_least_squares(sample.values, per_curve_fit(curves, 7, 60))

    def test_day_of_year_file_with_a_leap_day(self, tmp_path):
        rng = np.random.default_rng(103)
        days = np.arange(1, 367)
        values = rng.standard_normal((3, days.size))
        observations = []
        curves = []
        t = (days - 1.0) / 365.0
        for i, row in enumerate(values):
            kept = days.size if i == 1 else days.size - 1  # only c1 has a day-366 record
            observations += [(f"c{i}", str(d), f"{v:.17g}") for d, v in zip(days[:kept], row)]
            curves.append((t[:kept], row[:kept]))
        path = tmp_path / "days.csv"
        write_long_cells(path, observations)
        sample = ingest(str(path), IngestionConfig(layout="long", basis_size=15, grid_size=365))
        assert_matches_least_squares(sample.values, per_curve_fit(curves, 15, 365))

    def test_blocks_share_a_design_only_on_the_same_points(self, tmp_path, monkeypatch):
        # Blocks of two curves: a design is built for the first block and
        # again only where a block's distinct points differ from the block
        # before it; the fits are those of one block of every curve.
        rng = np.random.default_rng(107)
        a, b, c = (np.sort(rng.uniform(0.0, 1.0, 30)) for _ in range(3))
        points = [a, a, a, a, b, c, b, c, a, a]
        curves = [(t, rng.standard_normal(t.size)) for t in points]
        path = tmp_path / "blocks.csv"
        write_long_cells(path, long_cells(curves))
        config = IngestionConfig(layout="long", basis_size=7, grid_size=40)
        whole = ingest(str(path), config)
        built = []
        design = INGEST.fourier_design
        monkeypatch.setattr(INGEST, "BLOCK_CURVES", 2)
        monkeypatch.setattr(
            INGEST, "fourier_design", lambda t, k: built.append(t.size) or design(t, k)
        )
        blocked = ingest(str(path), config)
        assert built == [40, 30, 60, 30]  # the grid, then blocks 1, 3 and 5
        assert blocked.values.tobytes() == whole.values.tobytes()
        assert_matches_least_squares(whole.values, per_curve_fit(curves, 7, 40))

    def test_rows_header_of_integers(self, tmp_path):
        # A header 1..100 is mapped by its range onto (t-1)/99, not read as
        # days of a year.
        rng = np.random.default_rng(106)
        t = np.arange(1, 101)
        values = rng.standard_normal((3, t.size))
        path = tmp_path / "rows.csv"
        write_rows(path, t, values)
        curves = [((t - 1.0) / 99.0, row) for row in values]
        sample = ingest(str(path), IngestionConfig(basis_size=9, grid_size=50))
        assert_matches_least_squares(sample.values, per_curve_fit(curves, 9, 50))

    def test_rows_file_with_missing_cells(self, tmp_path):
        rng = np.random.default_rng(104)
        t = np.linspace(0.0, 1.0, 45)
        values = rng.standard_normal((5, t.size))
        holes = rng.random(values.shape) < 0.1
        lines = [",".join(f"{x:.17g}" for x in t)]
        lines += [
            ",".join("NA" if gap else f"{v:.17g}" for v, gap in zip(row, gaps))
            for row, gaps in zip(values, holes)
        ]
        path = tmp_path / "rows.csv"
        path.write_text("\n".join(lines) + "\n")
        curves = [(t[~gaps], row[~gaps]) for row, gaps in zip(values, holes)]
        sample = ingest(str(path), IngestionConfig(basis_size=11, grid_size=70))
        assert_matches_least_squares(sample.values, per_curve_fit(curves, 11, 70))


def long_cells(curves):
    """(curve_id, t_cell, value_cell) triples of (t, v) curves, full precision."""
    return [
        (f"c{i}", f"{tj:.17g}", f"{vj:.17g}")
        for i, (t, v) in enumerate(curves)
        for tj, vj in zip(t, v)
    ]


class TestLeastSquaresFallback:
    def test_rank_deficient_curves_keep_the_minimum_norm_fit(self, tmp_path, monkeypatch):
        # Three distinct points cannot fix five coefficients: the Gram matrix
        # is singular, the certificate rejects it, and the curve gets the
        # minimum-norm least-squares fit bit for bit. The well-conditioned
        # curve between them is solved in the batch, without least squares.
        rng = np.random.default_rng(105)
        few = np.repeat([0.1, 0.45, 0.8], 2)
        many = np.linspace(0.0, 1.0, 40)
        curves = [(t, rng.standard_normal(t.size)) for t in (few, many, few)]
        path = tmp_path / "thin.csv"
        write_long_cells(path, long_cells(curves))
        lstsq, designs = np.linalg.lstsq, []

        def recorded_lstsq(a, b, rcond=None):
            designs.append(a.shape)
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", recorded_lstsq)
        sample = ingest(str(path), IngestionConfig(layout="long", basis_size=5, grid_size=30))
        monkeypatch.undo()
        assert designs == [(6, 5), (6, 5)]
        reference = per_curve_fit(curves, 5, 30)
        assert sample.values[[0, 2]].tobytes() == reference[[0, 2]].tobytes()
        assert_matches_least_squares(sample.values[1], reference[1])


@st.composite
def smoothing_cases(draw):
    """A basis size and curves on random points in [0, 1] (left as they are by
    ingestion): one point in each cell of a uniform partition, spread out
    anyhow, clustered, or repeating a few distinct points."""
    basis_size = draw(st.sampled_from([3, 5, 7, 9]))
    magnitude = st.floats(1e-6, 1e3)
    cells = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))
    curves = []
    for _ in range(draw(st.integers(2, 5))):
        n = draw(st.integers(basis_size, 6 * basis_size))
        u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        kind = draw(st.sampled_from(["partition", "anyhow", "clustered", "repeated"]))
        if kind == "partition":
            t = (np.arange(n) + u) / n
        elif kind == "clustered":
            width = draw(st.sampled_from([1e-2, 1e-6, 0.0]))
            t = np.clip(draw(st.floats(0.0, 1.0)) + width * (u - 0.5), 0.0, 1.0)
        elif kind == "repeated":
            t = u[np.arange(n) % draw(st.integers(1, n))]
        else:
            t = u
        curves.append((t, np.array(draw(st.lists(cells, min_size=n, max_size=n)))))
    return basis_size, curves


def smooth_long(curves, basis_size, grid_size=40):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "curves.csv"
        write_long_cells(path, long_cells(curves))
        config = IngestionConfig(layout="long", basis_size=basis_size, grid_size=grid_size)
        return ingest(str(path), config)


class TestSmoothingProperties:
    """Both routes, the batched normal equations and the least-squares
    fallback, on point sets that exercise each."""

    @settings(max_examples=150, deadline=None)
    @given(case=smoothing_cases())
    def test_agrees_with_per_curve_least_squares(self, case):
        basis_size, curves = case
        sample = smooth_long(curves, basis_size)
        assert_matches_least_squares(sample.values, per_curve_fit(curves, basis_size, 40))

    @settings(max_examples=100, deadline=None)
    @given(case=smoothing_cases(), k=st.integers(-40, 40))
    def test_power_of_two_scaling_is_exact(self, case, k):
        basis_size, curves = case
        base = smooth_long(curves, basis_size)
        scaled = smooth_long([(t, np.ldexp(v, k)) for t, v in curves], basis_size)
        assert np.array_equal(scaled.values, np.ldexp(base.values, k))

    def test_scaling_near_the_float_limit_is_exact(self):
        # At 2^1020 the sums X'v of these curves exceed the float64 range,
        # but the smoothed curves themselves do not.
        rng = np.random.default_rng(106)
        t = np.linspace(0.0, 1.0, 40)
        curves = [(t, rng.uniform(0.5, 1.5, t.size)) for _ in range(3)]
        base = smooth_long(curves, 5)
        scaled = smooth_long([(t, np.ldexp(v, 1020)) for t, v in curves], 5)
        assert np.array_equal(scaled.values, np.ldexp(base.values, 1020))


class TestParserContract:
    def test_padded_curve_ids_merge_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "ids.csv"
        write_long_cells(path, [
            ("c2", "0", "1"), (" c1", "0", "4"), ("c2", "0.5", "2"),
            ("c1", "0.5", "5"), ("c1 ", "1", "6"), ("c2", "1", "3"),
        ])
        sample = ingest(str(path), IngestionConfig(layout="long", basis_size=None))
        assert sample.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    @pytest.mark.parametrize("token", [" NA ", "", "nan", "NaN"])
    @pytest.mark.parametrize("layout", ["rows", "long"])
    def test_missing_value_cells(self, tmp_path, token, layout):
        t = np.linspace(0.0, 1.0, 12)
        rows = np.vstack([np.cos(3 * t), np.sin(2 * t)])
        cells = [[f"{v:.17g}" for v in row] for row in rows]
        cells[0][4] = token
        path = tmp_path / "missing.csv"
        if layout == "rows":
            lines = [",".join(f"{x:.17g}" for x in t)] + [",".join(row) for row in cells]
            path.write_text("\n".join(lines) + "\n")
        else:
            write_long_cells(path, [
                (f"c{i}", f"{tj:.17g}", v) for i, row in enumerate(cells) for tj, v in zip(t, row)
            ])
        sample = ingest(str(path), IngestionConfig(layout=layout, basis_size=5, grid_size=20))
        keep = np.arange(t.size) != 4
        curves = [(t[keep], rows[0][keep]), (t, rows[1])]
        assert_matches_least_squares(sample.values, per_curve_fit(curves, 5, 20))
        with pytest.raises(ParseError, match="missing values present"):
            ingest(str(path), IngestionConfig(layout=layout, basis_size=5, missing="fail"))

    def test_unparsable_value_names_its_line(self, tmp_path):
        path = tmp_path / "word.csv"
        write_long_cells(path, [("c1", "0", "1.0"), ("c1", "0.5", "abc")])
        with pytest.raises(ParseError, match=r"line 3, value: cannot parse 'abc'"):
            ingest(str(path), IngestionConfig(layout="long"))
        path.write_text("0,0.5,1\n1,2,3\n4,abc,6\n")
        with pytest.raises(ParseError, match=r"line 3, column 1: cannot parse 'abc'"):
            ingest(str(path))

    def test_nan_observation_point(self, tmp_path):
        path = tmp_path / "nan_t.csv"
        write_long_cells(path, [("c1", "0", "1.0"), ("c1", "nan", "2.0")])
        with pytest.raises(ParseError, match="line 3: missing observation point"):
            ingest(str(path), IngestionConfig(layout="long"))

    def test_short_row_reports_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("0,0.5,1\n1,2,3\n\n4,5\n")
        with pytest.raises(ParseError, match=r"line 4\) has 2 values, expected 3"):
            ingest(str(path))
        path.write_text("curve_id,t,value\nc1,0,1\n\nc1,0.5\n")
        with pytest.raises(ParseError, match="line 4 has 2 fields, expected 3"):
            ingest(str(path), IngestionConfig(layout="long"))

    def test_long_line_after_a_quoted_cell_over_two_lines(self, tmp_path):
        # The record "a\nb" ends on line 3, so the bad cell sits on line 4.
        path = tmp_path / "quoted.csv"
        path.write_text('curve_id,t,value\n"a\nb",0,1\nc,0,abc\n')
        with pytest.raises(ParseError, match=r"line 4, value: cannot parse 'abc'"):
            ingest(str(path), IngestionConfig(layout="long"))

    def test_rows_line_after_a_quoted_cell_over_two_lines(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('0,0.5,1\n"1\n",2,3\n4,x,6\n')
        with pytest.raises(ParseError, match=r"line 4, column 1: cannot parse 'x'"):
            ingest(str(path))


class TestNonFiniteCells:
    @pytest.mark.parametrize("token", ["inf", "-Infinity", "1e999", " -inf "])
    @pytest.mark.parametrize(
        "layout, text, where",
        [
            ("rows", "0,{x},1\n1,2,3\n", "header column 1"),
            ("rows", "0,0.5,1\n1,2,3\n4,{x},6\n", "line 3, column 1"),
            ("long", "curve_id,t,value\nc1,0,1\nc1,{x},2\n", "line 3, t"),
            ("long", "curve_id,t,value\nc1,0,1\nc1,0.5,{x}\n", "line 3, value"),
        ],
        ids=["rows-header", "rows-value", "long-t", "long-value"],
    )
    def test_rejected_with_path_line_and_column(self, tmp_path, token, layout, text, where):
        path = tmp_path / "inf.csv"
        path.write_text(text.format(x=token))
        for basis_size in (3, None):
            config = IngestionConfig(layout=layout, basis_size=basis_size, grid_size=5)
            with pytest.raises(ParseError, match="non-finite number") as info:
                ingest(str(path), config)
            assert str(info.value).startswith(f"{path}: {where}: ")


class TestRawGridRange:
    def test_rows_header_outside_unit_interval(self, tmp_path):
        path = tmp_path / "days.csv"
        write_rows(path, np.arange(1, 366), np.ones((2, 365)))
        with pytest.raises(ParseError, match=r"run from 1\.0 to 365\.0; raw ingestion needs"):
            ingest(str(path), IngestionConfig(basis_size=None))
        # Smoothing rescales the same file.
        assert ingest(str(path), IngestionConfig(basis_size=5, grid_size=10)).n_curves == 2

    def test_long_points_not_spanning_unit_interval(self, tmp_path):
        path = tmp_path / "inner.csv"
        write_long(path, [0.25, 0.5, 0.75], np.ones((2, 3)))
        with pytest.raises(ParseError, match="raw ingestion needs points in"):
            ingest(str(path), IngestionConfig(layout="long", basis_size=None))

    def test_long_single_point(self, tmp_path):
        path = tmp_path / "one.csv"
        write_long(path, [0.5], np.ones((2, 1)))
        with pytest.raises(ParseError, match="at least 2"):
            ingest(str(path), IngestionConfig(layout="long", basis_size=None))


def read_outcome(reader, path):
    """A reader's curves as ids and raw bytes, or its ParseError message."""
    try:
        ids, ts, vs = reader(str(path))
    except ParseError as exc:
        return str(exc)
    return ids, [t.tobytes() for t in ts], [v.tobytes() for v in vs]


#: csv's limit on the length of one cell.
FIELD_LIMIT = csv.field_size_limit()

#: A long file the table reads: quoted, padded and interleaved ids, every
#: missing spelling, a blank line and CRLF line ends.
QUOTED_SPACED_INTERLEAVED = [
    "curve_id,t,value", 'c1,0.0,1.5', '"c,2",0.0,NA', " c1,0.5, na ", "",
    '"c""3",0.0,-0.0', "c1 ,1.0,2.5", '"c,2",0.5,', "c2,1,nan", '"c""3",1e-3,-nan',
    '" c2",0.25,1e300',
]

#: Bodies after the header whose verdict belongs to the per-row reader.
ODD_BODIES = {
    "underscore-t": "c0,1_0,1\n",  # float reads it, numpy's parser does not
    "two-line-id": 'c0,0,1\n"c\n1",0,1\n',  # a record over two lines
    # Five fields over two lines, each line three fields of its own.
    "two-line-value": 'c0,0,1\nc1,0,"1\n2",0,3\n',
    "arabic-digit": "c0,0,1\r\nc2,0,2\rc1,\u0661,1\n",  # a digit numpy does not read
    "na-t": "c0,0,1\nc1,NA,1\n",
    "inf-t": "c0,0,1\nc1,inf,1\n",
    "inf-value": "c0,0,1\nc1,0,-Infinity\n",
    "bad-value": "c0,0,1\nc1,0,abc\n",
    "blank-id": "c0,0,1\n ,0,1\n",
    "four-fields": "c0,0,1,2\n",
    "two-fields": "c0,0,1\nc1,0\n",
    "whitespace-line": "c0,0,1\n   \n",
    "long-id": "c" * (FIELD_LIMIT + 1) + ",0,1\n",
    "long-t": "c0," + " " * FIELD_LIMIT + "0,1\n",
    "no-rows": "\n\n",
}


class TestLongLayoutReaders:
    """``_read_long_table`` reads the long layout with ``np.loadtxt`` and leaves
    every file it cannot vouch for to ``_read_long_records``, the per-row reader."""

    def test_table_reads_quoted_spaced_and_interleaved_ids(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_bytes("\r\n".join(QUOTED_SPACED_INTERLEAVED).encode() + b"\r\n")
        table = read_outcome(_read_long_table, path)
        assert table == read_outcome(_read_long_records, path)
        ids, ts, _ = table
        assert ids == ["c1", "c,2", 'c"3', "c2"]
        assert np.frombuffer(ts[0]).tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("body", list(ODD_BODIES.values()), ids=list(ODD_BODIES))
    def test_per_row_reader_judges_what_the_table_cannot(self, tmp_path, body):
        path = tmp_path / "odd.csv"
        path.write_text("curve_id,t,value\n" + body, encoding="utf-8", newline="")
        assert _read_long_table(str(path)) is None
        assert read_outcome(_read_long_layout, path) == read_outcome(_read_long_records, path)

    def test_header_over_several_lines_cannot_hide_a_record_over_several(self, tmp_path):
        # Short lines each, but the t cell is over csv's limit; the header's
        # blank lines inside quotes do not make up for the record's extra lines.
        spread = FIELD_LIMIT // 2 + 1
        header = '"curve_id' + "\n" * (spread + 2) + '",t,value\n'
        record = 'c1,"' + "\n " * spread + '0.5",1\n'
        path = tmp_path / "spread.csv"
        path.write_text(header + "c0,0,1\n" + record)
        assert _read_long_table(str(path)) is None
        with pytest.raises(ParseError, match="field larger than field limit"):
            _read_long_layout(str(path))

    def test_over_limit_id_is_a_parse_error_not_a_curve(self, tmp_path):
        path = tmp_path / "long_id.csv"
        path.write_text(f"curve_id,t,value\n{'c' * (FIELD_LIMIT + 1)},0,1\n")
        with pytest.raises(ParseError, match=r"long_id\.csv: line 2: field larger than"):
            ingest(str(path), IngestionConfig(layout="long", basis_size=None))


class TestLongTableBlockEdges:
    """The table reads ``BLOCK_CHARS`` characters, rounded up to a whole line,
    per ``np.loadtxt`` call. With blocks of 1 character (one line each) and
    16 (one or two records) every file below crosses block edges, and each
    must give the per-row reader's bytes or its ParseError, with no warning."""

    @pytest.fixture(autouse=True, params=[1, 16], ids=["chars1", "chars16"])
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(INGEST, "BLOCK_CHARS", request.param)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_quoted_spaced_and_interleaved_ids(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_bytes("\r\n".join(QUOTED_SPACED_INTERLEAVED).encode() + b"\r\n")
        assert read_outcome(_read_long_table, path) == read_outcome(_read_long_records, path)

    @pytest.mark.parametrize("body", list(ODD_BODIES.values()), ids=list(ODD_BODIES))
    def test_per_row_reader_judges_what_the_table_cannot(self, tmp_path, body):
        path = tmp_path / "odd.csv"
        path.write_text("curve_id,t,value\n" + body, encoding="utf-8", newline="")
        assert _read_long_table(str(path)) is None
        assert read_outcome(_read_long_layout, path) == read_outcome(_read_long_records, path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "blanks", [(k,) for k in range(8)] + [(2, 2), (0, 3, 6), tuple(range(8))]
    )
    def test_blank_lines_at_and_between_block_edges(self, tmp_path, blanks, end):
        # A blank line goes before record k for each k in ``blanks``; 7 is
        # after the last record.
        records = [f"c{i // 3},{i / 10!r},{i}" for i in range(7)]
        lines = ["curve_id,t,value"]
        for k, record in enumerate([*records, None]):
            lines += [""] * blanks.count(k) + ([record] if record else [])
        path = tmp_path / "blank.csv"
        path.write_text(end.join(lines) + end, encoding="utf-8", newline="")
        table = read_outcome(_read_long_table, path)
        assert table == read_outcome(_read_long_records, path)
        assert table[0] == ["c0", "c1", "c2"]

    @pytest.mark.parametrize("k", range(7))
    def test_two_line_record_across_a_block_edge(self, tmp_path, k):
        records = [f"c{i},0.5,{i}" for i in range(7)]
        records[k] = '"c\n1",0.5,1'
        path = tmp_path / "spread.csv"
        path.write_text("\n".join(["curve_id,t,value", *records]) + "\n", newline="")
        assert _read_long_table(str(path)) is None
        assert read_outcome(_read_long_layout, path) == read_outcome(_read_long_records, path)


def write_record(path, end="\n"):
    """600 long-layout curves x 365 days with 1% ``NA`` cells, lines ending
    in ``end``: 1.75 MB of points and as much of values."""
    rng = np.random.default_rng(11)
    values = rng.standard_normal((600, 365))
    missing = rng.random(values.shape) < 0.01
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("curve_id,t,value" + end)
        for i, (row, gaps) in enumerate(zip(values, missing)):
            for day, (v, gap) in enumerate(zip(row.tolist(), gaps.tolist()), start=1):
                fh.write(f"c{i:04d},{day},{'NA' if gap else repr(v)}{end}")


class TestLongTableFastPath:
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_na_cells_need_no_per_cell_parser(self, tmp_path, monkeypatch, end):
        # A block that falls back to ``_value_cell`` reads the same bits,
        # only slower; this pins that exact NA cells keep numpy's parser.
        path = tmp_path / "record.csv"
        write_record(path, end)
        calls = []

        def counted(cell):
            calls.append(cell)
            return value_cell(cell)

        value_cell = INGEST._value_cell
        monkeypatch.setattr(INGEST, "_value_cell", counted)
        table = _read_long_table(str(path))
        assert table is not None
        assert calls == []
        ids, ts, vs = table
        assert len(ids) == 600 and {t.size for t in ts} == {365}
        assert sum(int(np.isnan(v).sum()) for v in vs) == path.read_text().count(",NA")


class TestIngestMemory:
    def test_long_file_traced_peak(self, tmp_path):
        # The reader sizes its columns once and smoothing cleans and fits a
        # block of curves at a time; an (n, 3) table and pooled copies of
        # every point took the peak to about 12.5 MB.
        path = tmp_path / "record.csv"
        write_record(path)
        assert _read_long_table(str(path)) is not None  # not the per-row reader
        config = IngestionConfig(layout="long")
        ingest(str(path), config)  # first-call allocations stay out
        tracemalloc.start()
        try:
            sample = ingest(str(path), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sample.values.shape == (600, 365)
        assert peak < 9_000_000


class TestTextEncoding:
    @pytest.mark.parametrize("layout", ["rows", "long"])
    def test_byte_order_mark_is_skipped(self, tmp_path, layout):
        t = np.linspace(0.0, 1.0, 5)
        values = np.vstack([t, 1.0 - t])
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        (write_rows if layout == "rows" else write_long)(plain, t, values)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        config = IngestionConfig(layout=layout, basis_size=None)
        marked_values, plain_values = (ingest(str(p), config).values for p in (marked, plain))
        assert marked_values.tobytes() == plain_values.tobytes()
