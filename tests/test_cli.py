"""End-to-end command-line checks, run in-process through ``main``."""

import csv
import io
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

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
            ("3", ("1.7e308,1.7e308,-1.7e308,-1.7e308,1.7e308", "1,2,0,1,2", "3,1,2,5,1"), 3),
        ],
        ids=["smoothed", "raw", "smoothing"],
    )
    def test_float64_overflow_prints_only_the_error(self, capsys, tmp_path, basis, values, code):
        big = tmp_path / "big.csv"
        big.write_text("\n".join(("0,0.25,0.5,0.75,1",) + values) + "\n")
        got, out, err = run_cli(capsys, "fpca-summary", str(big), "--basis-size", basis)
        assert got == code and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "fdchange" in capsys.readouterr().out


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
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fdchange.cli", "--version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
