"""Command-line interface: ingestion, tests, simulation, report emission.

Exit codes: 0 success; 2 usage (argparse); 3 parse errors in input files;
4 configuration/resolution errors (including a worker count below 1, a
negative ``--seed`` and an unwritable ``--out``); 5 degenerate data
(including grid mismatches between the two samples of ``two-sample``).

Commands check settings, then input, then seed. Checked before any file is
read are the draw settings of a randomized command (``critical-values``,
``segment``, ``simulate`` and ``cpt-test --method cvm2d``, which draw a
Monte Carlo law or replicates): ``--K`` and ``--reps`` (or ``--law-reps``
of ``simulate``) when a limit law is drawn, then ``--workers``; the
scenario, and the settings its ``--test`` never reads (``--m`` of a
change-point test, ``--k-star`` of ``two-sample`` or of a change-point test
at ``--a 0``); a repeated ``--d-list`` or ``--alpha`` entry; d >= 1 for
``fpca-summary``, ``two-sample`` and the normal-limit methods of
``cpt-test``; and d >= 2 for cvm2d and the change-point estimator (both
sum over strict prefixes of the components, so both are 0 at d = 1). So
``cpt-test --d 1``, ``estimate --d 1``, ``fpca-summary --d 0``, a 1 in the
``--d-list`` of ``segment`` or of ``simulate --test cvm2d``, and
``--workers 0`` of a randomized command exit 4 whether or not the input
exists. Whether d components survive the eigenvalue floor is
checked once the data is read. Last, a randomized command prints the
effective seed on stderr so a rerun with ``--seed`` reproduces its output
byte for byte, and checks that ``--out`` can be written, all before it
draws anything.
The other commands are deterministic; ``cpt-test`` with a normal-limit
method (``sup-bridge``, ``cvm-sum`` or ``sup-sum``) ignores ``--reps``,
``--seed`` and ``--workers``. The limit law is always drawn in threads on
this process's cores; ``--workers`` is checked and otherwise unused, kept so
that existing command lines run.
Every JSON report starts with ``version``, ``command`` and, for a randomized
command, ``seed``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from . import __version__
from ._rng import resolve_seed
from .changepoint import (
    CHANGEPOINT_TESTS,
    ESTIMATOR,
    _require_cvm2d_d,
    _segmentation_d_list,
    binary_segmentation,
    corollary_tests,
    cvm2d_test,
    estimate_changepoint,
    sample_cusum,
)
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    GridMismatchError,
    ParseError,
)
from .fpca import _check_d, sample_eigensystem, variance_explained
from .ingest import FLOAT_FORMAT, IngestionConfig, ingest
from .limitdist import MAX_TRUNCATION, MIN_REPS, STANDARD_ALPHAS, simulate_tld
from .simulation import SimScenario, _check_design, run_size_power
from .twosample import two_sample_test

_EXIT_PARSE = 3
_EXIT_CONFIG = 4
_EXIT_DEGENERATE = 5


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def _json_default(obj):
    """What ``json`` cannot write itself: numpy arrays and numpy scalars."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _report(args, table: list[dict], seed: int | None = None, **fields) -> int:
    """Write the command's report to --out (default stdout) and return exit 0.

    CSV writes ``table``, whose columns are the keys of its first row. JSON
    writes ``version``, ``command``, ``seed`` (for a randomized command) and
    then ``fields``. Every report has a row: an ``fpca-summary`` that retains
    no component stops before this, in ``variance_explained``, with exit 5.
    """
    if args.output == "json":
        envelope = {"version": __version__, "command": args.command}
        if seed is not None:
            envelope["seed"] = seed
        text = json.dumps({**envelope, **fields}, indent=2, default=_json_default) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table[0])
        for row in table:
            writer.writerow([_fmt(value) for value in row.values()])
        text = buf.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {args.out}: {exc}") from exc
    return 0


def _check_out(path: str) -> None:
    """Fail now, not after the simulation, if ``_report`` could not write ``path``."""
    if path == "-":
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(folder):
        problem = f"no directory {folder}"
    elif not os.access(folder, os.W_OK):
        problem = f"directory {folder} is not writable"
    else:
        return
    raise ConfigurationError(f"cannot write {path}: {problem}")


def _start_draws(args) -> int:
    """Resolve and announce the seed of a randomized command, then check --out."""
    seed = resolve_seed(args.seed)
    print(f"seed: {seed}", file=sys.stderr)
    _check_out(args.out)
    return seed


def _check_law(args, reps: int | None, flag: str) -> None:
    """Reject, by flag name, the draw settings of a randomized command: a --K
    that the simulated law's Nystrom grid cannot resolve and a replicate count
    ``reps`` (given as ``flag``) below MIN_REPS, unless ``reps`` is None (no
    law is drawn), and a --workers below 1, though the flag selects nothing."""
    if reps is not None:
        if not 1 <= args.truncation <= MAX_TRUNCATION:
            raise ConfigurationError(
                f"--K must be between 1 and {MAX_TRUNCATION}, got {args.truncation}"
            )
        if reps < MIN_REPS:
            raise ConfigurationError(f"{flag} must be >= {MIN_REPS}, got {reps}")
    if args.workers < 1:
        raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")


def _basis_size(text: str):
    if text.lower() in ("raw", "none"):
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an odd integer >= 3 or 'raw', got {text!r}")


def _list_of(kind, noun: str):
    """An argparse type for a comma-separated list of ``kind``."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(",") if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")

    return parse


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", choices=("csv", "json"), default="csv",
                     help="report format (default csv)")
    sub.add_argument("--out", default="-", metavar="PATH",
                     help="output file (default - for stdout)")


def _add_ingest_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--layout", choices=("rows", "long"), default="rows",
                     help="CSV layout: curves as rows, or long (curve_id,t,value)")
    sub.add_argument("--basis-size", type=_basis_size, default=49, metavar="K",
                     help="odd Fourier basis size, or 'raw' to skip smoothing (default 49)")
    sub.add_argument("--grid-size", type=int, default=365, metavar="T",
                     help="analysis grid points after smoothing (default 365)")
    sub.add_argument("--missing", choices=("drop", "fail"), default="drop",
                     help="missing-value policy (default drop)")


def _add_law_flags(
    sub: argparse.ArgumentParser,
    reps_default: int = 100_000,
    reps_help: str = "limit-law replicates (default {d})",
) -> None:
    sub.add_argument("--K", type=int, default=49, dest="truncation",
                     help="series truncation of the simulated limit law (default 49)")
    sub.add_argument("--reps", type=int, default=reps_default,
                     help=reps_help.format(d=reps_default))
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: fresh entropy, printed to stderr)")
    sub.add_argument("--workers", type=int, default=1,
                     help="must be >= 1 and selects nothing: the limit law is always drawn "
                          "in threads on this process's cores (kept for existing scripts)")


def _load_sample(args, path: str):
    config = IngestionConfig(
        layout=args.layout,
        basis_size=args.basis_size,
        grid_size=args.grid_size,
        missing=args.missing,
    )
    try:
        return ingest(path, config)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _cmd_critical_values(args) -> int:
    _check_law(args, args.reps, "--reps")
    seed = _start_draws(args)
    law = simulate_tld(truncation=args.truncation, reps=args.reps, seed=seed)
    rows = [
        {
            "alpha": alpha,
            "critical_value": law.critical_value(alpha),
            "reps": args.reps,
            "K": args.truncation,
            "seed": seed,
        }
        for alpha in STANDARD_ALPHAS
    ]
    return _report(args, rows, seed, K=args.truncation, reps=args.reps, rows=rows)


def _cmd_cpt_test(args) -> int:
    if args.method == "cvm2d":
        _require_cvm2d_d([args.d], "--d")
        _check_law(args, args.reps, "--reps")
    else:
        _check_d(args.d)
    sample = _load_sample(args, args.input)
    eig, cusum = sample_cusum(sample, args.d)
    seed = None
    if args.method == "cvm2d":
        seed = _start_draws(args)
        law = simulate_tld(args.truncation, args.reps, seed=seed)
        outcome = cvm2d_test(eig, cusum, law)
    else:
        outcome = corollary_tests(cusum, args.method)
    row = {
        "method": outcome.method,
        "d": outcome.d,
        "n": sample.n_curves,
        "statistic": outcome.statistic,
        "p_value": outcome.p_value,
    }
    return _report(args, [row], seed, **row, diagnostics=outcome.diagnostics)


def _cmd_estimate(args) -> int:
    _require_cvm2d_d([args.d], "--d", ESTIMATOR)
    sample = _load_sample(args, args.input)
    _, cusum = sample_cusum(sample, args.d)
    theta = estimate_changepoint(cusum)
    row = {"d": args.d, "n": sample.n_curves, "theta_hat": theta}
    return _report(args, [row], **row)


def _cmd_segment(args) -> int:
    _segmentation_d_list(args.d_list, args.alpha, args.min_segment, "every --d-list entry")
    _check_law(args, args.reps, "--reps")
    sample = _load_sample(args, args.input)
    seed = _start_draws(args)
    law = simulate_tld(args.truncation, args.reps, seed=seed)
    tree = binary_segmentation(
        sample, args.d_list, args.alpha, law, min_segment=args.min_segment
    )
    return _report(args, tree.rows(), seed, tree=tree.to_dict())


def _cmd_two_sample(args) -> int:
    _check_d(args.d)
    x = _load_sample(args, args.input)
    y = _load_sample(args, args.second)
    outcome = two_sample_test(x, y, args.d)
    row = {
        "d": outcome.d,
        "n": x.n_curves,
        "m": y.n_curves,
        "statistic": outcome.statistic,
        "z_score": outcome.z_score,
        "p_value": outcome.p_value,
    }
    return _report(args, [row], **row, diagnostics=outcome.diagnostics)


def _cmd_simulate(args) -> int:
    _check_law(args, args.law_reps if args.test == "cvm2d" else None, "--law-reps")
    # The scenario is checked here, before the seed line; the seed is set after.
    scenario = SimScenario(
        n=args.n,
        m=args.m,
        grid_size=args.grid_size,
        a=args.a,
        k_star=args.k_star,
        d_list=args.d_list,
        alpha_list=args.alpha,
        reps=args.reps,
    )
    _check_design(scenario, args.test, "every --d-list entry")
    seed = _start_draws(args)
    scenario = dataclasses.replace(scenario, seed=seed)
    law = None
    if args.test == "cvm2d":
        law = simulate_tld(args.truncation, args.law_reps, seed=seed + 1)
    report = run_size_power(scenario, args.test, law=law)
    rows = list(report.rows)
    return _report(
        args, rows, seed, test=args.test, m=args.m, grid_size=args.grid_size, rows=rows
    )


def _cmd_fpca_summary(args) -> int:
    _check_d(args.d)
    sample = _load_sample(args, args.input)
    eig = sample_eigensystem(sample, args.d)
    cumulative = variance_explained(eig.eigenvalues)
    rows = []
    previous = 0.0
    for j in range(eig.d):
        rows.append(
            {
                "component": j + 1,
                "eigenvalue": float(eig.eigenvalues[j]),
                "spacing": float(eig.spacings[j]),
                "fraction": float(cumulative[j] - previous),
                "cumulative": float(cumulative[j]),
            }
        )
        previous = float(cumulative[j])
    return _report(
        args, rows, n=sample.n_curves, requested_d=args.d, retained_d=eig.d, rows=rows
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdchange",
        description="Change-point and two-sample mean tests for functional data "
        "with a growing number of principal-component projections.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critical-values", help="simulate the limit law and report quantiles")
    _add_law_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_critical_values)

    p = sub.add_parser("cpt-test", help="test a sample of curves for a mean change")
    p.add_argument("input", help="CSV file of curves")
    p.add_argument("--d", type=int, default=5, help="number of projections (default 5)")
    p.add_argument("--method", choices=CHANGEPOINT_TESTS, default="cvm2d",
                   help="test statistic (default cvm2d)")
    _add_ingest_flags(p)
    _add_law_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_cpt_test)

    p = sub.add_parser("estimate", help="estimate the change-point location")
    p.add_argument("input", help="CSV file of curves")
    p.add_argument("--d", type=int, default=5, help="number of projections (default 5)")
    _add_ingest_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("segment", help="binary segmentation into constant-mean pieces")
    p.add_argument("input", help="CSV file of curves")
    p.add_argument("--d-list", type=_list_of(int, "integers"), default=(3, 4, 5, 6),
                   metavar="D1,D2,...",
                   help="projection counts tried on every segment (default 3,4,5,6)")
    p.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    p.add_argument("--min-segment", type=int, default=8,
                   help="smallest segment still tested (default 8)")
    _add_ingest_flags(p)
    _add_law_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("two-sample", help="compare the mean functions of two samples")
    p.add_argument("input", help="CSV file of the first sample")
    p.add_argument("second", help="CSV file of the second sample")
    p.add_argument("--d", type=int, default=3, help="number of projections (default 3)")
    _add_ingest_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_two_sample)

    p = sub.add_parser("simulate", help="size/power study on simulated Brownian samples")
    p.add_argument("--test", choices=CHANGEPOINT_TESTS + ("two-sample",), default="cvm2d")
    p.add_argument("--n", type=int, required=True, help="curves per sample")
    p.add_argument("--m", type=int, default=None,
                   help="second-sample size, two-sample only (default: n)")
    p.add_argument("--a", type=float, default=0.0, help="shift amplitude (default 0)")
    p.add_argument("--k-star", type=int, default=None,
                   help="last pre-change index, change-point tests only "
                        "(default n//2 when a != 0)")
    p.add_argument("--d-list", type=_list_of(int, "integers"), default=(5,), metavar="D1,D2,...")
    p.add_argument("--alpha", type=_list_of(float, "numbers"), default=(0.05,),
                   metavar="A1,A2,...", help="levels evaluated (default 0.05)")
    p.add_argument("--grid-size", type=int, default=1000,
                   help="random-walk steps per curve (default 1000)")
    p.add_argument("--law-reps", type=int, default=100_000,
                   help="limit-law replicates for cvm2d (default 100000)")
    _add_law_flags(p, reps_default=1000, reps_help="scenario replicates (default {d})")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fpca-summary", help="eigenvalues, spacings, variance explained")
    p.add_argument("input", help="CSV file of curves")
    p.add_argument("--d", type=int, default=10, help="components reported (default 10)")
    _add_ingest_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_fpca_summary)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except ConfigurationError as exc:  # includes ResolutionError
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (DegenerateDataError, GridMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
