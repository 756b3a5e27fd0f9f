"""End-to-end command-line checks, run in-process through ``main``."""

import csv
import hashlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

import fdchange
from fdchange.cli import main
from fdchange.curves import FunctionalSample, Grid
from fdchange.ingest import write_sample_csv
from fdchange.simulation import generate_bm_sample, inject_shift

from _datasets import MULTI_CHANGE_AFTER, multi_change_sample


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_sample_csv(generate_bm_sample(40, 64, seed=101), str(root / "x.csv"))
    shifted = inject_shift(generate_bm_sample(40, 64, seed=102), 4.0, 20)
    write_sample_csv(shifted, str(root / "shift.csv"))
    lifted = inject_shift(generate_bm_sample(40, 64, seed=103), 3.0, "all")
    write_sample_csv(lifted, str(root / "y_shift.csv"))
    write_sample_csv(generate_bm_sample(10, 32, seed=104), str(root / "grid32.csv"))
    flat = FunctionalSample(Grid.uniform(65), np.tile(np.sin(Grid.uniform(65).points), (12, 1)))
    write_sample_csv(flat, str(root / "const.csv"))
    write_sample_csv(multi_change_sample(), str(root / "multi.csv"))
    return root


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


RAW = ("--basis-size", "raw")


class TestCriticalValues:
    def test_csv_report(self, capsys):
        code, out, err = run_cli(
            capsys, "critical-values", "--reps", "2000", "--seed", "123", "--workers", "2"
        )
        assert code == 0
        assert "seed: 123" in err
        header, rows = parse_csv(out)
        assert header == ["alpha", "critical_value", "reps", "K", "seed"]
        assert [float(r["alpha"]) for r in rows] == [0.01, 0.05, 0.10]
        values = [float(r["critical_value"]) for r in rows]
        assert values[0] > values[1] > values[2] > 0
        assert all(r["seed"] == "123" and r["K"] == "49" for r in rows)

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        argv = ["critical-values", "--reps", "500", "--seed", "77"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_fresh_seed_announced_and_replayable(self, capsys):
        _, out1, err = run_cli(capsys, "critical-values", "--reps", "500")
        seed = err.strip().split("seed: ")[1].splitlines()[0]
        _, out2, _ = run_cli(capsys, "critical-values", "--reps", "500", "--seed", seed)
        assert out1 == out2

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical-values", "--reps", "500", "--seed", "5", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "critical-values"
        assert payload["seed"] == 5 and payload["K"] == 49 and payload["reps"] == 500
        assert len(payload["rows"]) == 3
        assert payload["rows"][1]["alpha"] == 0.05

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "cv.csv"
        code, out, _ = run_cli(
            capsys, "critical-values", "--reps", "500", "--seed", "9", "--out", str(target)
        )
        assert code == 0 and out == ""
        header, rows = parse_csv(target.read_text())
        assert header[0] == "alpha" and len(rows) == 3

    def test_full_precision_cells(self, capsys):
        _, out, _ = run_cli(capsys, "critical-values", "--reps", "500", "--seed", "4")
        _, rows = parse_csv(out)
        for row in rows:
            cell = row["critical_value"]
            assert "%.17g" % float(cell) == cell


class TestCptTest:
    def test_detects_injected_change(self, capsys, cli_files):
        code, out, err = run_cli(
            capsys, "cpt-test", str(cli_files / "shift.csv"), *RAW,
            "--d", "4", "--reps", "5000", "--seed", "1",
        )
        assert code == 0
        assert "seed: 1" in err
        header, rows = parse_csv(out)
        assert header == ["method", "d", "n", "statistic", "p_value"]
        assert rows[0]["method"] == "cvm2d" and rows[0]["d"] == "4" and rows[0]["n"] == "40"
        assert float(rows[0]["p_value"]) < 0.01

    def test_null_sample_keeps_moderate_p(self, capsys, cli_files):
        code, out, _ = run_cli(
            capsys, "cpt-test", str(cli_files / "x.csv"), *RAW,
            "--d", "4", "--reps", "5000", "--seed", "2",
        )
        assert code == 0
        assert float(parse_csv(out)[1][0]["p_value"]) > 0.01

    @pytest.mark.parametrize("method", ["cvm-sum", "sup-sum"])
    def test_normal_limit_methods_need_no_seed(self, capsys, cli_files, method):
        code, out, err = run_cli(
            capsys, "cpt-test", str(cli_files / "shift.csv"), *RAW,
            "--method", method, "--d", "4",
        )
        assert code == 0
        assert "seed:" not in err
        row = parse_csv(out)[1][0]
        assert row["method"] == method
        assert 0.0 <= float(row["p_value"]) <= 1.0

    def test_sup_bridge_method(self, capsys, cli_files):
        outputs = []
        for seed in ("3", "4"):
            code, out, err = run_cli(
                capsys, "cpt-test", str(cli_files / "shift.csv"), *RAW,
                "--method", "sup-bridge", "--d", "4", "--reps", "2000", "--seed", seed,
                "--workers", "2",
            )
            assert code == 0
            assert "seed:" not in err
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert float(parse_csv(outputs[0])[1][0]["p_value"]) < 0.05

    def test_json_includes_diagnostics(self, capsys, cli_files):
        code, out, _ = run_cli(
            capsys, "cpt-test", str(cli_files / "x.csv"), *RAW,
            "--d", "3", "--reps", "500", "--seed", "8", "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 8
        assert "eigenvalues" in payload["diagnostics"]
        assert len(payload["diagnostics"]["eigenvalues"]) == 3


class TestEstimate:
    def test_locates_injected_change(self, capsys, cli_files):
        code, out, _ = run_cli(
            capsys, "estimate", str(cli_files / "shift.csv"), *RAW, "--d", "4"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["d", "n", "theta_hat"]
        assert abs(int(rows[0]["theta_hat"]) - 20) <= 2


class TestTwoSample:
    def test_identical_files(self, capsys, cli_files):
        path = str(cli_files / "x.csv")
        code, out, _ = run_cli(capsys, "two-sample", path, path, *RAW)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["d", "n", "m", "statistic", "z_score", "p_value"]
        row = rows[0]
        assert float(row["statistic"]) == 0.0
        assert float(row["z_score"]) == pytest.approx(-math.sqrt(1.5), rel=1e-12)
        assert float(row["p_value"]) == pytest.approx(norm.cdf(math.sqrt(1.5)), rel=1e-12)

    def test_shifted_second_sample_rejects(self, capsys, cli_files):
        code, out, _ = run_cli(
            capsys, "two-sample", str(cli_files / "x.csv"), str(cli_files / "y_shift.csv"), *RAW
        )
        assert code == 0
        assert float(parse_csv(out)[1][0]["p_value"]) < 1e-4

    def test_grid_mismatch_exits_5(self, capsys, cli_files):
        code, _, err = run_cli(
            capsys, "two-sample", str(cli_files / "x.csv"), str(cli_files / "grid32.csv"), *RAW
        )
        assert code == 5
        assert "error:" in err

    def test_degenerate_covariance_exits_5(self, capsys, cli_files):
        path = str(cli_files / "const.csv")
        code, _, err = run_cli(capsys, "two-sample", path, path, *RAW)
        assert code == 5
        assert "degenerate" in err


class TestSegment:
    def test_recovers_multi_change_structure(self, capsys, cli_files):
        code, out, err = run_cli(
            capsys, "segment", str(cli_files / "multi.csv"), *RAW,
            "--d-list", "3,4,5", "--alpha", "0.01", "--reps", "20000", "--seed", "11",
            "--workers", "2",
        )
        assert code == 0
        assert "seed: 11" in err
        header, rows = parse_csv(out)
        assert header[:7] == [
            "iteration", "lo", "hi", "length", "status", "change_after", "split_d"
        ]
        assert header[7:] == ["p_d3", "p_d4", "p_d5"]
        splits = sorted(
            int(r["change_after"]) for r in rows if r["status"] == "rejected"
        )
        assert splits == sorted(MULTI_CHANGE_AFTER)
        leaves = [r for r in rows if r["status"] != "rejected"]
        assert len(leaves) == len(splits) + 1

    def test_json_tree(self, capsys, cli_files):
        code, out, _ = run_cli(
            capsys, "segment", str(cli_files / "x.csv"), *RAW,
            "--d-list", "3", "--reps", "2000", "--seed", "12", "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "segment"
        assert isinstance(payload["tree"], dict)


def write_seasonal_rows(path, seed, offset):
    """200 curves over days 1..365 in the rows layout: ``offset`` plus 24
    Fourier components whose standard deviations fall as exp(-0.7 k)."""
    day = np.arange(1, 366)
    x = (day - 1) / 364
    k = np.arange(24)
    freq = (k // 2 + 1)[:, None]
    phi = np.sqrt(2.0) * np.where(
        (k % 2 == 0)[:, None], np.sin(2 * np.pi * freq * x), np.cos(2 * np.pi * freq * x)
    )
    xi = np.random.default_rng(seed).standard_normal((200, 24))
    curves = offset + (xi * np.exp(-0.7 * k)) @ phi
    lines = [",".join(str(d) for d in day)]
    lines += [",".join(repr(float(v)) for v in row) for row in curves]
    path.write_text("\n".join(lines) + "\n")


class TestOffsetData:
    """Curves around 285 (temperatures in kelvin, say) get the answers of the
    same curves around 0. Centering leaves a rounding residue in each score
    column that grows with the offset; the statistics read bridges, which it
    does not move, so no command may refuse the data for it."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_offset_moves_no_answer(self, capsys, tmp_path, seed):
        answers = []
        for offset in (0, 285):
            path = tmp_path / f"offset{offset}.csv"
            write_seasonal_rows(path, seed, offset)
            code, out, err = run_cli(
                capsys, "cpt-test", str(path), "--method", "cvm-sum", "--d", "15"
            )
            assert (code, err) == (0, "")
            statistic = float(parse_csv(out)[1][0]["statistic"])
            code, out, err = run_cli(capsys, "estimate", str(path), "--d", "15")
            assert (code, err) == (0, "")
            theta = parse_csv(out)[1][0]["theta_hat"]
            code, out, _ = run_cli(
                capsys, "segment", str(path), "--d-list", "15", "--reps", "200", "--seed", "1"
            )
            assert code == 0
            tree = [(r["status"], r["change_after"]) for r in parse_csv(out)[1]]
            answers.append((statistic, theta, tree))
        (stat0, theta0, tree0), (stat285, theta285, tree285) = answers
        assert stat285 == pytest.approx(stat0, rel=1e-6)
        assert (theta285, tree285) == (theta0, tree0)


class TestSimulate:
    def test_size_table(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--test", "cvm2d", "--n", "30", "--grid-size", "60",
            "--d-list", "3,5", "--alpha", "0.05,0.1", "--reps", "50",
            "--law-reps", "2000", "--seed", "3", "--workers", "2",
        )
        assert code == 0
        assert "seed: 3" in err
        header, rows = parse_csv(out)
        assert header == [
            "N", "d", "alpha", "a", "k_star", "p_hat", "band_lo", "band_hi", "R", "seed"
        ]
        assert len(rows) == 4
        for row in rows:
            assert row["N"] == "30" and row["R"] == "50"
            assert 0.0 <= float(row["p_hat"]) <= 1.0
            assert row["k_star"] == ""  # null scenario

    def test_default_k_star_fills_midpoint(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--test", "cvm-sum", "--n", "30", "--grid-size", "60",
            "--a", "1.0", "--d-list", "4", "--reps", "20", "--seed", "4",
        )
        assert code == 0
        assert parse_csv(out)[1][0]["k_star"] == "15"

    def test_two_sample_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--test", "two-sample", "--n", "20", "--m", "25",
            "--grid-size", "50", "--d-list", "3", "--reps", "40", "--seed", "5",
            "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["test"] == "two-sample" and payload["m"] == 25
        row = payload["rows"][0]
        assert row["k_star"] is None and 0.0 <= row["p_hat"] <= 1.0

    @pytest.mark.parametrize("test", ["two-sample", "cvm2d"])
    def test_workers_change_no_report(self, capsys, test):
        # --workers is checked and otherwise unused: the law is drawn in
        # threads on this process's cores whatever its value.
        argv = ("simulate", "--test", test, "--n", "30", "--grid-size", "60",
                "--d-list", "3,5", "--reps", "40", "--law-reps", "2000", "--seed", "3")
        one = run_cli(capsys, *argv, "--workers", "1")
        two = run_cli(capsys, *argv, "--workers", "2")
        assert one[0] == 0 and one == two


class TestFpcaSummary:
    def test_table_shape_and_monotonicity(self, capsys, cli_files):
        code, out, _ = run_cli(
            capsys, "fpca-summary", str(cli_files / "x.csv"), *RAW, "--d", "6"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["component", "eigenvalue", "spacing", "fraction", "cumulative"]
        assert [int(r["component"]) for r in rows] == list(range(1, 7))
        eigs = [float(r["eigenvalue"]) for r in rows]
        assert all(a >= b for a, b in zip(eigs, eigs[1:]))
        cum = [float(r["cumulative"]) for r in rows]
        assert all(b >= a for a, b in zip(cum, cum[1:])) and cum[-1] <= 1.0 + 1e-12
        fractions = [float(r["fraction"]) for r in rows]
        assert sum(fractions) == pytest.approx(cum[-1], rel=1e-9)

    def test_json_reports_retained_d(self, capsys, cli_files):
        code, out, _ = run_cli(
            capsys, "fpca-summary", str(cli_files / "x.csv"), *RAW, "--d", "6",
            "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["requested_d"] == 6 and payload["retained_d"] == 6
        assert payload["n"] == 40


class TestReportEnvelope:
    #: One run per report: (argv, randomized, single-row). ``{name}`` is the
    #: CSV file ``name.csv`` of ``cli_files``.
    CASES = {
        "critical-values": ("critical-values --reps 200 --seed 3", True, False),
        "cpt-test-cvm2d": ("cpt-test {shift} --basis-size raw --d 3 --reps 200 --seed 3",
                           True, True),
        "cpt-test-cvm-sum": ("cpt-test {shift} --basis-size raw --d 3 --method cvm-sum",
                             False, True),
        "estimate": ("estimate {shift} --basis-size raw --d 3", False, True),
        "segment": ("segment {multi} --basis-size raw --d-list 3 --reps 200 --seed 3",
                    True, False),
        "two-sample": ("two-sample {x} {y_shift} --basis-size raw", False, True),
        "simulate": ("simulate --test sup-sum --n 20 --grid-size 30 --reps 5 --seed 3",
                     True, False),
        "fpca-summary": ("fpca-summary {x} --basis-size raw --d 3", False, False),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_json_starts_with_the_envelope(self, capsys, cli_files, case):
        line, randomized, single_row = self.CASES[case]
        names = ("x", "shift", "y_shift", "multi")
        argv = line.format(**{name: str(cli_files / f"{name}.csv") for name in names}).split()
        code, out, _ = run_cli(capsys, *argv, "--output", "json")
        assert code == 0
        payload = json.loads(out)
        keys = list(payload)
        envelope = ["version", "command"] + (["seed"] if randomized else [])
        assert keys[: len(envelope)] == envelope and "seed" not in keys[len(envelope):]
        assert payload["version"] == fdchange.__version__ and payload["command"] == argv[0]
        if single_row:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            header, _ = parse_csv(out)
            assert header == [key for key in keys[len(envelope):] if key != "diagnostics"]


def pinned_long_text():
    """24 long-layout curves at 12 points, written point by point so that the
    curves interleave, with CRLF line ends, NA, blank and nan cells, a quoted
    id holding a comma, a quoted id holding a quote, and an id written both
    with and without a leading space. Values are multiples of 1/8, exact in
    decimal and binary; curves 14 on are shifted by 2."""
    ids = ["c00", '"c,01"', " c02", '"c""03"']
    lines = ["curve_id,t,value"]
    for j in range(12):
        for i in range(24):
            cid = ids[i] if i < len(ids) else f"c{i:02d}"
            if i == 2 and j % 2:
                cid = "c02"
            v = ((i * 37 + j * 101 + (i * j) % 17) % 23 - 11) / 8 + (2.0 if i >= 14 else 0.0)
            cell = {(1, 3): "NA", (5, 7): "", (9, 2): " NA ", (20, 10): "nan"}.get((i, j), repr(v))
            lines.append(f"{cid},{j / 16!r},{cell}")
    return "".join(line + "\r\n" for line in lines)


class TestPinnedLongLayoutReports:
    """SHA-256 of JSON reports on ``pinned_long_text``, computed before the long
    layout was read through ``np.loadtxt`` (numpy 2.4.6 with its bundled
    OpenBLAS on x86-64). Reading the file another way must not move a bit.

    The 24 curves on 16 points are solved from the T x T side. The
    ``fpca-summary`` and ``cpt-test`` digests were re-taken when that side
    stopped building a covariance surface and solved R^T R of the weighted
    rows instead: their numbers moved by at most 1.9e-14 relative (the
    ``cvm-sum`` p-value; the eigenvalues, spacings and fractions by at most
    2.0e-15). ``estimate`` and ``segment`` kept their bits."""

    FLAGS = ("--layout", "long", "--basis-size", "5", "--grid-size", "16", "--output", "json")
    DIGESTS = {
        "fpca-summary --d 3":
            "7355fae8a9222cf5054a070326dc47970eda7d75a00b4fa7c619599344ad1684",
        "cpt-test --d 2 --method cvm-sum":
            "3c80d9a541f0854f02d8f9b891311e9fcbc2831e673ff9e8caad44fa6f80b9d2",
        "estimate --d 2":
            "7a198ef894003af3c1fb700cf78054776face7fba3476e1395152218816b7b85",
        "segment --d-list 2 --reps 2000 --seed 3":
            "cff39b0156e25057a236c1b2feb318fae65bac000eae749f2396223940cacc33",
    }

    @pytest.mark.parametrize("command", list(DIGESTS))
    def test_report_digest(self, capsys, tmp_path, command):
        path = tmp_path / "pinned.csv"
        path.write_bytes(pinned_long_text().encode())
        name, *flags = command.split()
        code, out, _ = run_cli(capsys, name, str(path), *flags, *self.FLAGS)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[command]


class TestPinnedCriticalValues:
    """SHA-256 of ``critical-values`` JSON reports, computed while the default
    law still solved for its bridge-square eigenvalues on every call (numpy
    2.4.6 with its bundled OpenBLAS on x86-64). Serving them from the stored
    table must not move a bit; K = 250 reads every entry of it."""

    DIGESTS = {
        "49": "f5cb5783c1fa6fed8318d229c7ff97b4c2f6b4d7e70e9fe724963c2f8fe277b3",
        "250": "e3aca6ff9b133ae2a95568d103f88356a5a01a91311236d90e4881e4de9d234e",
    }

    @pytest.mark.parametrize("truncation", list(DIGESTS))
    def test_report_digest(self, capsys, truncation):
        code, out, _ = run_cli(
            capsys, "critical-values", "--K", truncation, "--reps", "2000", "--seed", "3",
            "--output", "json",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[truncation]


class TestExitCodes:
    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "estimate", str(tmp_path / "nope.csv"), *RAW)
        assert code == 3
        assert "error:" in err and "cannot read" in err

    def test_malformed_file_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,0.5,1.0\n1.0,two,3.0\n")
        code, _, err = run_cli(capsys, "estimate", str(bad), *RAW)
        assert code == 3

    @pytest.mark.parametrize(
        "layout, text",
        [
            ("rows", "0,0.5,1\n1,{x},3\n4,5,6\n"),
            ("rows", "0,{x},1\n1,2,3\n4,5,6\n"),
            ("long", "curve_id,t,value\na,0,1\na,0.5,{x}\nb,0,1\nb,0.5,2\n"),
            ("long", "curve_id,t,value\na,0,1\na,{x},2\nb,0,1\nb,0.5,2\n"),
        ],
        ids=["rows-value", "rows-header", "long-value", "long-t"],
    )
    @pytest.mark.parametrize("token", ["inf", "-Infinity", "1e999"])
    def test_non_finite_cell_is_parse_error(self, capsys, tmp_path, layout, text, token):
        bad = tmp_path / "inf.csv"
        bad.write_text(text.format(x=token))
        code, out, err = run_cli(
            capsys, "fpca-summary", str(bad), "--layout", layout, "--basis-size", "3",
            "--grid-size", "5", "--d", "1",
        )
        assert code == 3 and out == ""
        assert err.startswith(f"error: {bad}: line ") or err.startswith(f"error: {bad}: header")
        assert "non-finite number" in err

    @pytest.mark.parametrize("layout", ["rows", "long"])
    def test_raw_points_outside_unit_interval_is_parse_error(self, capsys, tmp_path, layout):
        days = np.arange(1, 366)
        values = np.vstack([np.sin(days / 50.0), np.cos(days / 40.0)])
        bad = tmp_path / "days.csv"
        if layout == "rows":
            lines = [days] + list(values)
        else:
            lines = [("curve_id", "t", "value")] + [
                (f"c{i}", d, v) for i, row in enumerate(values) for d, v in zip(days, row)
            ]
        bad.write_text("".join(",".join(map(str, line)) + "\n" for line in lines))
        code, out, err = run_cli(
            capsys, "fpca-summary", str(bad), "--layout", layout, "--basis-size", "raw"
        )
        assert code == 3 and out == ""
        assert err.startswith("error:") and "raw ingestion needs points in [0, 1]" in err

    def test_bad_configuration_is_exit_4(self, capsys, cli_files):
        code, _, err = run_cli(
            capsys, "cpt-test", str(cli_files / "x.csv"), "--basis-size", "4"
        )
        assert code == 4
        code, _, _ = run_cli(
            capsys, "cpt-test", str(cli_files / "x.csv"), *RAW, "--d", "0",
            "--reps", "500", "--seed", "1",
        )
        assert code == 4

    def test_too_coarse_law_reps_is_exit_4(self, capsys, cli_files):
        code, _, err = run_cli(
            capsys, "cpt-test", str(cli_files / "x.csv"), *RAW, "--reps", "50", "--seed", "1"
        )
        assert code == 4

    def test_too_few_law_reps_names_the_law_reps_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--test", "cvm2d", "--n", "20", "--grid-size", "50",
            "--reps", "5", "--law-reps", "50", "--seed", "1",
        )
        assert code == 4 and out == ""
        assert err.splitlines() == ["error: --law-reps must be >= 100, got 50"]

    @pytest.mark.parametrize(
        "ingest_flags", [RAW, ("--basis-size", "9", "--grid-size", "20")],
        ids=["gram-side", "t-side"],
    )
    def test_failed_eigensolve_is_exit_5(self, capsys, cli_files, monkeypatch, ingest_flags):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        code, out, err = run_cli(
            capsys, "fpca-summary", str(cli_files / "x.csv"), *ingest_flags
        )
        assert code == 5 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("cpt-test", "{x}", "--reps", "500", "--seed", "1"),
             "cvm2d needs --d >= 2, got 0"),
            (("cpt-test", "{x}", "--method", "cvm-sum"), "d must be >= 1, got 0"),
            (("estimate", "{x}"), "change-point estimation needs --d >= 2, got 0"),
            (("two-sample", "{x}", "{x}"), "d must be >= 1, got 0"),
            (("fpca-summary", "{x}"), "d must be >= 1, got 0"),
        ],
        ids=["cvm2d", "cvm-sum", "estimate", "two-sample", "fpca-summary"],
    )
    def test_d_below_one_is_exit_4(self, capsys, cli_files, argv, message):
        argv = [a.format(x=cli_files / "x.csv") for a in argv]
        code, out, err = run_cli(capsys, *argv, *RAW, "--d", "0")
        assert code == 4 and out == ""
        assert err.splitlines()[-1] == f"error: {message}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("cpt-test", "--d", "1"), "cvm2d needs --d >= 2, got 1"),
            (("estimate", "--d", "1"), "change-point estimation needs --d >= 2, got 1"),
            (("cpt-test", "--workers", "0", "--seed", "1"), "--workers must be >= 1, got 0"),
            (("segment", "--workers", "0", "--seed", "1"), "--workers must be >= 1, got 0"),
            (("fpca-summary", "--d", "0"), "d must be >= 1, got 0"),
            (("cpt-test", "--method", "cvm-sum", "--d", "0"), "d must be >= 1, got 0"),
            (("two-sample", "{x}", "--d", "0"), "d must be >= 1, got 0"),
        ],
        ids=["cpt-test-d", "estimate-d", "cpt-test-workers", "segment-workers",
             "fpca-summary-d", "cvm-sum-d", "two-sample-d"],
    )
    def test_bad_setting_is_exit_4_before_the_input_is_read(
        self, capsys, tmp_path, monkeypatch, argv, message
    ):
        def no_reads(*args, **kwargs):
            raise AssertionError("the input was read")

        monkeypatch.setattr("fdchange.cli.ingest", no_reads)
        missing = str(tmp_path / "missing.csv")
        command, *flags = (a.format(x=missing) for a in argv)
        code, out, err = run_cli(capsys, command, missing, *flags)
        assert code == 4 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("layout", ["rows", "long"])
    def test_empty_file_is_exit_3(self, capsys, tmp_path, layout):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, out, err = run_cli(capsys, "fpca-summary", str(empty), "--layout", layout)
        assert code == 3 and out == ""
        assert err.splitlines() == [f"error: {empty}: empty file"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fpca_summary_of_identical_curves_is_exit_5(self, capsys, cli_files, fmt):
        # No component survives the floor: the report would have no rows.
        code, out, err = run_cli(
            capsys, "fpca-summary", str(cli_files / "const.csv"), *RAW, "--output", fmt
        )
        assert code == 5 and out == ""
        assert err.splitlines() == ["error: no eigenvalues to summarize"]

    def test_component_that_lifts_unclean_is_dropped(self, capsys, tmp_path):
        # The Gram solve keeps a component about 5e-9 of the top one whose
        # lifted eigenfunction is not orthonormal to the first.
        rows = tmp_path / "lift.csv"
        rows.write_text("0.0,0.5,0,0,0,0\n0,69,0,0,0,3.0\n0,93,0,0,0,4.0\n0,0,0,0,0,0\n")
        code, out, err = run_cli(
            capsys, "fpca-summary", str(rows), "--basis-size", "3", "--grid-size", "7",
            "--d", "2", "--output", "json",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["retained_d"] == 1

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_bad_worker_count_is_exit_4(self, capsys, cli_files, workers):
        code, _, err = run_cli(
            capsys, "critical-values", "--reps", "200", "--seed", "1", "--workers", workers
        )
        assert code == 4 and "workers" in err
        code, _, err = run_cli(
            capsys, "cpt-test", str(cli_files / "x.csv"), *RAW, "--reps", "200",
            "--seed", "1", "--workers", workers,
        )
        assert code == 4 and "workers" in err

    def test_workers_rule_of_simulate_and_the_normal_limit_methods(self, capsys, cli_files):
        # simulate is a randomized command for every --test, so it refuses
        # --workers 0 though only cvm2d draws a law; the normal-limit
        # cpt-test methods draw nothing and ignore --workers.
        code, out, err = run_cli(
            capsys, "simulate", "--test", "cvm-sum", "--n", "20", "--reps", "5",
            "--workers", "0",
        )
        assert (code, out) == (4, "") and "--workers must be >= 1, got 0" in err
        code, out, err = run_cli(
            capsys, "cpt-test", str(cli_files / "x.csv"), *RAW, "--method", "cvm-sum",
            "--workers", "0",
        )
        assert code == 0 and err == "" and out

    def test_unwritable_out_is_exit_4(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "critical-values", "--reps", "200", "--seed", "1",
            "--out", str(tmp_path / "missing" / "cv.csv"),
        )
        assert code == 4 and out == ""
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0] == "seed: 1"
        assert lines[1].startswith("error: cannot write")

    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["no-dir", "is-dir"])
    def test_unwritable_out_fails_before_the_law_is_drawn(
        self, capsys, cli_files, tmp_path, monkeypatch, target
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("the limit law was simulated")

        monkeypatch.setattr("fdchange.cli.simulate_tld", no_draws)
        out = str(tmp_path / target)
        for command in ("cpt-test", "segment"):
            code, stdout, err = run_cli(
                capsys, command, str(cli_files / "x.csv"), *RAW, "--seed", "2", "--out", out
            )
            assert code == 4 and stdout == ""
            lines = err.splitlines()
            assert len(lines) == 2 and lines[0] == "seed: 2"
            assert lines[1].startswith("error: cannot write")

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("segment", "--d-list", "1,3"), 4,
             "cvm2d needs every --d-list entry >= 2, got 1"),
            (("segment", "--d-list", ","), 4, "d_list must not be empty"),
            (("segment", "--alpha", "1.5"), 4, "alpha must be in (0, 1), got 1.5"),
            (("segment", "--min-segment", "2"), 4, "min_segment must be >= 8, got 2"),
            (("cpt-test", "--d", "0"), 4, "cvm2d needs --d >= 2, got 0"),
            (("cpt-test", "--d", "45"), 5, "requested d=45 but only"),
        ],
        ids=["d-list", "empty-d-list", "alpha", "min-segment", "d-zero", "d-too-large"],
    )
    def test_bad_settings_fail_before_the_law_is_drawn(
        self, capsys, cli_files, monkeypatch, argv, code, message
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("the limit law was simulated")

        monkeypatch.setattr("fdchange.cli.simulate_tld", no_draws)
        command, *flags = argv
        exit_code, out, err = run_cli(
            capsys, command, str(cli_files / "x.csv"), *RAW, *flags, "--seed", "1"
        )
        assert exit_code == code and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")

    @pytest.mark.parametrize("k", ["0", "251"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("critical-values",),
            ("cpt-test", "{x}", *RAW),
            ("segment", "{x}", *RAW),
            ("simulate", "--n", "20", "--grid-size", "50", "--reps", "5"),
        ],
        ids=["critical-values", "cpt-test", "segment", "simulate"],
    )
    def test_out_of_range_k_is_named_before_the_seed(
        self, capsys, cli_files, monkeypatch, argv, k
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("the limit law was simulated")

        monkeypatch.setattr("fdchange.cli.simulate_tld", no_draws)
        argv = [a.format(x=cli_files / "x.csv") for a in argv]
        code, out, err = run_cli(capsys, *argv, "--K", k, "--seed", "1")
        assert code == 4 and out == ""
        assert err.splitlines() == [f"error: --K must be between 1 and 250, got {k}"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("critical-values", "--reps", "50"), "--reps must be >= 100, got 50"),
            (("critical-values", "--workers", "0"), "--workers must be >= 1, got 0"),
            (("cpt-test", "{x}", *RAW, "--reps", "50"), "--reps must be >= 100, got 50"),
            (("cpt-test", "{x}", *RAW, "--workers", "0"), "--workers must be >= 1, got 0"),
            (("segment", "{x}", *RAW, "--reps", "50"), "--reps must be >= 100, got 50"),
            (("segment", "{x}", *RAW, "--workers", "-2"), "--workers must be >= 1, got -2"),
            (("simulate", "--n", "20", "--reps", "0"), "reps must be >= 1, got 0"),
            (("simulate", "--n", "20", "--reps", "5", "--workers", "0"),
             "--workers must be >= 1, got 0"),
            (("cpt-test", "{x}", *RAW, "--d", "1"), "cvm2d needs --d >= 2, got 1"),
            (("simulate", "--n", "20", "--reps", "5", "--d-list", "1,3"),
             "cvm2d needs every --d-list entry >= 2, got 1"),
            (("simulate", "--test", "cvm-sum", "--n", "20", "--grid-size", "30", "--a", "nan",
              "--reps", "5"), "a must be finite, got nan"),
            (("simulate", "--test", "two-sample", "--n", "20", "--grid-size", "30", "--a", "inf",
              "--reps", "5"), "a must be finite, got inf"),
            (("simulate", "--test", "two-sample", "--n", "20", "--reps", "5", "--d-list", "3",
              "--k-star", "5"), "k_star is a change point; two-sample has none"),
            (("simulate", "--test", "cvm-sum", "--n", "20", "--reps", "5", "--m", "7"),
             "m is a second-sample size; cvm-sum draws one sample"),
            (("simulate", "--n", "20", "--reps", "5", "--m", "7"),
             "m is a second-sample size; cvm2d draws one sample"),
            (("simulate", "--test", "cvm-sum", "--n", "20", "--grid-size", "30", "--reps", "5",
              "--k-star", "5"), "k_star is a change point; a null scenario (a = 0) has none"),
            (("simulate", "--n", "20", "--reps", "5", "--k-star", "5"),
             "k_star is a change point; a null scenario (a = 0) has none"),
            (("simulate", "--test", "cvm-sum", "--n", "20", "--grid-size", "30", "--reps", "5",
              "--d-list", "3,3", "--alpha", "0.05,0.05"),
             "d_list must not repeat an entry, got (3, 3)"),
            (("simulate", "--n", "20", "--reps", "5", "--alpha", "0.05,0.1,0.05"),
             "alpha_list must not repeat an entry, got (0.05, 0.1, 0.05)"),
            (("segment", "{x}", *RAW, "--d-list", "3,3"),
             "d_list must not repeat an entry, got (3, 3)"),
        ],
        ids=["cv-reps", "cv-workers", "cpt-reps", "cpt-workers", "segment-reps",
             "segment-workers", "simulate-reps", "simulate-workers", "cpt-d1",
             "simulate-d1", "simulate-a-nan", "simulate-a-inf", "simulate-two-sample-k-star",
             "simulate-cvm-sum-m", "simulate-cvm2d-m", "simulate-cvm-sum-null-k-star",
             "simulate-cvm2d-null-k-star", "simulate-repeated-d", "simulate-repeated-alpha",
             "segment-repeated-d"],
    )
    def test_bad_draw_settings_are_named_before_the_seed(
        self, capsys, cli_files, monkeypatch, argv, message
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("the limit law was simulated")

        monkeypatch.setattr("fdchange.cli.simulate_tld", no_draws)
        argv = [a.format(x=cli_files / "x.csv") for a in argv]
        code, out, err = run_cli(capsys, *argv, "--seed", "1")
        assert code == 4 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_normal_limit_methods_ignore_k(self, capsys, cli_files):
        code, _, err = run_cli(
            capsys, "cpt-test", str(cli_files / "x.csv"), *RAW, "--method", "cvm-sum",
            "--K", "0",
        )
        assert code == 0 and err == ""

    def test_largest_k_is_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical-values", "--K", "250", "--reps", "100", "--seed", "1"
        )
        assert code == 0 and parse_csv(out)[1][0]["K"] == "250"

    @pytest.mark.parametrize(
        "argv",
        [
            ("critical-values", "--reps", "200"),
            ("segment", "{x}", *RAW, "--reps", "200"),
            ("simulate", "--n", "20", "--grid-size", "50", "--reps", "5", "--law-reps", "200"),
        ],
        ids=["critical-values", "segment", "simulate"],
    )
    def test_negative_seed_is_exit_4(self, capsys, cli_files, argv):
        argv = [a.format(x=cli_files / "x.csv") for a in argv]
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 4 and out == ""
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "basis, values, code",
        [
            ("3", ("2.3e155,1,2,3,4", "1,2.3e155,0,1,2", "3,1,2.3e155,5,1"), 5),
            ("raw", ("2.3e155,1,2,3,4", "1,2.3e155,0,1,2", "3,1,2.3e155,5,1"), 5),
            ("raw", ("2.3e155,1,2,3,4", "1,2.3e155,0,1,2", "3,1,2.3e155,5,1",
                     "4,0,1,2.3e155,2", "0,3,1,2,2.3e155", "2.3e155,2.3e155,0,1,2"), 5),
            ("3", ("1.7e308,1.7e308,-1.7e308,-1.7e308,1.7e308", "1,2,0,1,2", "3,1,2,5,1"), 3),
        ],
        ids=["smoothed", "raw", "raw-t-side", "smoothing"],
    )
    def test_float64_overflow_prints_only_the_error(self, capsys, tmp_path, basis, values, code):
        big = tmp_path / "big.csv"
        big.write_text("\n".join(("0,0.25,0.5,0.75,1",) + values) + "\n")
        got, out, err = run_cli(capsys, "fpca-summary", str(big), "--basis-size", basis)
        assert got == code and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_observation_span_overflow_is_exit_3(self, capsys, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("0.0,1.7976931348623155e+308,-2.9937604643020797e+292\n0.0,0.0,0.0\n")
        code, out, err = run_cli(capsys, "fpca-summary", str(wide), "--basis-size", "3")
        assert code == 3 and out == ""
        assert err.splitlines() == [
            f"error: {wide}: observation points run from -2.9937604643020797e+292 to "
            "1.7976931348623155e+308; the span overflows float64"
        ]

    def test_missing_value_names_the_second_file(self, capsys, cli_files, tmp_path):
        na = tmp_path / "na.csv"
        na.write_text("0,0.25,0.5,0.75,1\n1,2,3,4,5\n1,2,NA,4,5\n")
        code, out, err = run_cli(
            capsys, "two-sample", str(cli_files / "x.csv"), str(na), "--missing", "fail"
        )
        assert code == 3 and out == ""
        assert err.splitlines() == [f"error: {na}: curve 1: missing values present"]

    @pytest.mark.parametrize(
        "layout, header",
        [("rows", "0,0.5,1\n"), ("long", "curve_id,t,value\n")],
        ids=["rows", "long"],
    )
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"1,0.5,\xff\n", "byte 0xff is not UTF-8"),
            (b"1,0.5," + b"1" * (csv.field_size_limit() + 1) + b"\n",
             "field larger than field limit"),
        ],
        ids=["not-utf8", "over-limit"],
    )
    def test_unreadable_text_is_exit_3(self, capsys, tmp_path, layout, header, data, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(header.encode() + b"0,0,1\n" + data)
        code, out, err = run_cli(
            capsys, "fpca-summary", str(bad), "--layout", layout, "--basis-size", "raw"
        )
        assert code == 3 and out == ""
        assert err.startswith(f"error: {bad}: ") and message in err
        assert len(err.splitlines()) == 1

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["critical-values", "--quadrature", "simpson"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["critical-values", "--quadrature", "trapezoid"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_bad_basis_size_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fpca-summary", "x.csv", "--basis-size", "abc"])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert "_basis_size" not in err
        assert "argument --basis-size: expected an odd integer >= 3 or 'raw', got 'abc'" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "fdchange" in capsys.readouterr().out


def src_env():
    """This environment with the package's ``src`` directory first on
    PYTHONPATH, as pytest's ``pythonpath`` setting puts it first on sys.path,
    so a subprocess imports this tree without an install."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestConsoleScript:
    def test_entry_point_installed(self):
        exe = shutil.which("fdchange")
        assert exe is not None
        proc = subprocess.run(
            [exe, "--version"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "fdchange" in proc.stdout

    def test_cli_import_skips_scipy_stats(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, fdchange.cli; sys.exit('scipy.stats' in sys.modules)"],
            capture_output=True,
            env=src_env(),
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    #: Modules of a process pool, which the package never starts: the law is
    #: drawn in threads whatever ``--workers`` says. The process pool cost
    #: about 2 MB of resident memory at import, and ``concurrent.futures``
    #: alone (with ``logging``) about 0.4 MB.
    POOL_MODULES = ("concurrent.futures", "concurrent.futures.process", "multiprocessing")

    def _loaded_pool_modules(self, code: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys\n{code}\n"
             f"print([m for m in {self.POOL_MODULES!r} if m in sys.modules])"],
            capture_output=True,
            env=src_env(),
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_starts_no_process_pool(self):
        assert self._loaded_pool_modules("import fdchange.cli") == "[]"

    def test_law_starts_no_process_pool(self):
        # The law is drawn in threads of this process for any workers value.
        code = (
            "from fdchange.limitdist import simulate_tld\n"
            "simulate_tld(truncation=7, reps=400, seed=5, workers=4)"
        )
        assert self._loaded_pool_modules(code) == "[]"

    def test_workers_flag_starts_no_process_pool(self):
        code = (
            "from fdchange.cli import main\n"
            "assert main(['critical-values', '--reps', '200', '--seed', '1', "
            "'--workers', '2']) == 0"
        )
        assert self._loaded_pool_modules(code).splitlines()[-1] == "[]"

    def test_cli_import_skips_scipy_linalg(self, cli_files):
        # numpy is the only runtime dependency: no scipy module at all is
        # loaded by the import or by commands that cover every p-value route.
        script = (
            "import sys\n"
            "from fdchange.cli import main\n"
            "x, raw = sys.argv[1], ['--basis-size', 'raw']\n"
            "sim = ['--n', '20', '--grid-size', '50', '--reps', '5', '--seed', '1']\n"
            "assert main(['fpca-summary', x, *raw]) == 0\n"
            "assert main(['cpt-test', x, *raw, '--method', 'cvm-sum']) == 0\n"
            "assert main(['two-sample', x, x, *raw]) == 0\n"
            "assert main(['simulate', '--test', 'two-sample', *sim]) == 0\n"
            "assert main(['simulate', '--test', 'sup-sum', *sim]) == 0\n"
            "assert main(['critical-values', '--reps', '200', '--seed', '1']) == 0\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "sys.exit(f'scipy modules loaded: {loaded}' if loaded else 0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(cli_files / "x.csv")],
            capture_output=True,
            env=src_env(),
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fdchange.cli", "--version"],
            capture_output=True,
            env=src_env(),
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
