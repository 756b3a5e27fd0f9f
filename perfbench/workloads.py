"""The benchmark's workloads: inputs, command sequences and output checks.

Each workload builds its inputs from the workload seed (untimed), then names
the CLI commands one repetition runs and checks every command's JSON report.
Every command runs with ``--workers 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gen
import reference

#: Relative tolerance on the cpt statistic against the independent reference.
STAT_RTOL = 1e-8

#: Half-width, in standard errors, of the acceptance band for a rejection
#: rate. A literal 90% band (z = 1.654) fails one row in ten on a correct
#: program; with eleven rows per run and z = 4.5 a correct program fails
#: any row with probability below 1e-4.
RATE_Z = 4.5


@dataclass
class Workload:
    name: str
    prepare: Callable[[int, str], "Prepared"]
    expected_spans: tuple[str, ...]


@dataclass
class Prepared:
    """Generated inputs: the command sequence and one check per command."""

    commands: list[tuple[str, list[str]]]
    checks: list[Callable[[dict], str | None]]
    facts: dict = field(default_factory=dict)


def program_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


# --- cpt ---------------------------------------------------------------------


def _prepare_cpt(seed: int, workdir: str) -> Prepared:
    data = gen.make_cpt(seed, workdir)
    table = np.loadtxt(data.path, delimiter=",")
    smoothed = reference.smooth_day_of_year(table[0], table[1:])
    want = float(reference.cvm2d_statistics(smoothed, 5)[4])

    def check(report: dict) -> str | None:
        if report.get("method") != "cvm2d" or report.get("d") != 5 or report.get("n") != 200:
            return f"unexpected header {report.get('method')}/{report.get('d')}/{report.get('n')}"
        if not abs(report["statistic"] - want) <= STAT_RTOL * abs(want):
            return f"statistic {report['statistic']!r} != reference {want!r}"
        if not report["p_value"] <= 1e-3:
            return f"p-value {report['p_value']} > 1e-3 on a sample with a mean shift"
        return None

    argv = ["cpt-test", data.path, "--seed", str(program_seed(seed, 1)), "--workers", "1"]
    return Prepared([("cpt_test", argv)], [check], {"change_at": data.change_at, "reference": want})


# --- long-record -------------------------------------------------------------


def _prepare_long(seed: int, workdir: str) -> Prepared:
    data = gen.make_long(seed, workdir)
    first, second = data.change_at
    n = gen.LONG_CURVES
    half = n // 2
    long_flags = ["--layout", "long"]

    def check_summary(report: dict) -> str | None:
        lam = [row["eigenvalue"] for row in report["rows"]]
        if report["n"] != n or report["retained_d"] != 10:
            return f"n={report['n']} retained_d={report['retained_d']}"
        if not all(a >= b > 0 for a, b in zip(lam, lam[1:])):
            return f"eigenvalues not positive and non-increasing: {lam}"
        if not math.isclose(report["rows"][-1]["cumulative"], 1.0, rel_tol=1e-12):
            return "cumulative variance fraction does not end at 1"
        return None

    def check_cvm_sum(report: dict) -> str | None:
        if report["method"] != "cvm-sum" or report["n"] != n:
            return f"unexpected header {report['method']}/{report['n']}"
        if not report["p_value"] <= 1e-3:
            return f"cvm-sum p-value {report['p_value']} > 1e-3 on a record with two changes"
        return None

    def check_estimate(report: dict) -> str | None:
        if abs(report["theta_hat"] - first) > 5:
            return f"theta_hat {report['theta_hat']} not within 5 of the change at {first}"
        return None

    def check_two_sample(report: dict) -> str | None:
        if report["n"] != half or report["m"] != n - half:
            return f"sample sizes {report['n']}/{report['m']}"
        if not report["p_value"] <= 1e-3:
            return f"two-sample p-value {report['p_value']} > 1e-3 for halves with different means"
        return None

    def check_segment(report: dict) -> str | None:
        found = report["tree"]["change_points"]
        want = [first - 1, second - 1]
        if found != want:
            return f"segment found change points {found}, injected {want}"
        return None

    seg_seed = str(program_seed(seed, 2))
    commands = [
        ("fpca_summary", ["fpca-summary", data.path, *long_flags]),
        ("cpt_test", ["cpt-test", data.path, *long_flags, "--method", "cvm-sum"]),
        ("estimate", ["estimate", data.path, *long_flags]),
        ("two_sample", ["two-sample", data.first_half, data.second_half, *long_flags]),
        ("segment", ["segment", data.path, *long_flags,
                     "--d-list", ",".join(map(str, gen.SEGMENT_D)), "--alpha", "0.01",
                     "--reps", "20000", "--seed", seg_seed, "--workers", "1"]),
    ]
    checks = [check_summary, check_cvm_sum, check_estimate, check_two_sample, check_segment]
    return Prepared(commands, checks, {"change_at": list(data.change_at), "redraws": data.redraws})


# --- size-study --------------------------------------------------------------

#: Replicates per size-study command, sized so one repetition takes a few
#: seconds on one core.
SIZE_REPS = 50
TWO_SAMPLE_REPS = 50
LAW_REPS = 2000

#: Rejection rates of the seed commit, from long runs of the same commands
#: (see perfbench/README.md): (d, alpha) -> (rate, replicates).
CVM2D_RATES = {
    (3, 0.01): (0.02666666666666667, 3000),
    (3, 0.05): (0.052, 3000),
    (3, 0.1): (0.074, 3000),
    (5, 0.01): (0.027333333333333334, 3000),
    (5, 0.05): (0.05366666666666667, 3000),
    (5, 0.1): (0.08066666666666666, 3000),
    (7, 0.01): (0.023, 3000),
    (7, 0.05): (0.05366666666666667, 3000),
    (7, 0.1): (0.07866666666666666, 3000),
}
TWO_SAMPLE_RATES = {
    (3, 0.05): (0.36466666666666664, 3000),
    (5, 0.05): (0.33266666666666667, 3000),
}


def _rate_band(rate: float, alpha: float, ref_reps: int, reps: int, law_reps: int | None) -> float:
    """RATE_Z standard errors of (p_hat - rate): run, reference and law noise.

    A law of L draws puts its critical value at a tail probability with
    variance alpha (1 - alpha) / L; the rejection rate moves by about
    rate / alpha times that.
    """
    var = max(rate * (1.0 - rate), 1.0 / ref_reps) * (1.0 / reps + 1.0 / ref_reps)
    if law_reps:
        var += (rate / alpha) ** 2 * alpha * (1.0 - alpha) / law_reps
    return RATE_Z * math.sqrt(var)


def _rates_check(table: dict, reps: int, law_reps: int | None):
    def check(report: dict) -> str | None:
        rows = report["rows"]
        if len(rows) != len(table):
            return f"{len(rows)} rows, expected {len(table)}"
        for row in rows:
            rate, ref_reps = table[(row["d"], row["alpha"])]
            if row["R"] != reps:
                return f"row R={row['R']}, expected {reps}"
            half = _rate_band(rate, row["alpha"], ref_reps, reps, law_reps)
            if abs(row["p_hat"] - rate) > half:
                return (
                    f"d={row['d']} alpha={row['alpha']}: p_hat {row['p_hat']} outside "
                    f"{rate:.4f} +- {half:.4f}"
                )
        return None

    return check


def _prepare_size(seed: int, workdir: str) -> Prepared:
    del workdir  # the size study simulates its own curves
    cvm2d = [
        "simulate", "--test", "cvm2d", "--n", "200", "--grid-size", "1000",
        "--d-list", "3,5,7", "--alpha", "0.01,0.05,0.1", "--law-reps", str(LAW_REPS),
        "--reps", str(SIZE_REPS), "--seed", str(program_seed(seed, 3)), "--workers", "1",
    ]
    two = [
        "simulate", "--test", "two-sample", "--n", "100", "--a", "0.5", "--d-list", "3,5",
        "--reps", str(TWO_SAMPLE_REPS), "--seed", str(program_seed(seed, 4)), "--workers", "1",
    ]
    return Prepared(
        [("simulate", cvm2d), ("simulate", two)],
        [_rates_check(CVM2D_RATES, SIZE_REPS, LAW_REPS),
         _rates_check(TWO_SAMPLE_RATES, TWO_SAMPLE_REPS, None)],
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cpt",
            _prepare_cpt,
            ("cli.cpt_test", "ingest.ingest", "fpca.sample_eigensystem", "fpca.compute_scores",
             "changepoint.cvm2d_test", "limitdist.simulate_tld", "limitdist.nystrom",
             "limitdist.p_value", "rng.replicate_rng", "parallel.run_replicates"),
        ),
        Workload(
            "long-record",
            _prepare_long,
            ("cli.fpca_summary", "cli.cpt_test", "cli.estimate", "cli.two_sample", "cli.segment",
             "ingest.ingest", "fpca.sample_eigensystem", "fpca.eigendecompose",
             "fpca.compute_scores", "changepoint.corollary_tests",
             "changepoint.estimate_changepoint", "changepoint.binary_segmentation",
             "limitdist.simulate_tld", "limitdist.p_value", "rng.replicate_rng",
             "twosample.two_sample_test", "twosample.pooled_eigensystem"),
        ),
        Workload(
            "size-study",
            _prepare_size,
            ("cli.simulate", "simulation.run_size_power", "fpca.sample_eigensystem",
             "fpca.compute_scores", "twosample.pooled_eigensystem", "rng.replicate_rng",
             "limitdist.simulate_tld", "parallel.run_replicates"),
        ),
    )
}
