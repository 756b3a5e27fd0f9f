"""Command-line interface: ingestion, tests, simulation, report emission.

Exit codes: 0 success; 2 usage (argparse); 3 parse errors in input files;
4 configuration/resolution errors (including a worker count below 1, a
negative ``--seed`` and an unwritable ``--out``); 5 degenerate data
(including grid mismatches between the two samples of ``two-sample``).

The randomized commands are ``critical-values``, ``segment``, ``simulate``
and ``cpt-test --method cvm2d``, which draw a Monte Carlo law or replicates.
Each prints the effective seed on stderr so a rerun with ``--seed``
reproduces its output byte for byte, and then checks that ``--out`` can be
written before it draws anything. The other commands are deterministic;
``cpt-test`` with a normal-limit method (``sup-bridge``, ``cvm-sum`` or
``sup-sum``) ignores ``--reps``, ``--seed`` and ``--workers``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from ._rng import resolve_seed
from .changepoint import (
    COROLLARY_VARIANTS,
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
from .fpca import sample_eigensystem, variance_explained
from .ingest import FLOAT_FORMAT, IngestionConfig, ingest
from .limitdist import STANDARD_ALPHAS, simulate_tld
from .simulation import SimScenario, run_size_power
from .twosample import two_sample_test

_EXIT_PARSE = 3
_EXIT_CONFIG = 4
_EXIT_DEGENERATE = 5

_METHODS = ("cvm2d",) + COROLLARY_VARIANTS


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _emit(args, columns: list[str], rows: list[dict], payload: dict) -> None:
    """Write either a CSV table or a JSON document to --out (default stdout)."""
    if args.output == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        text = buf.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {args.out}: {exc}") from exc


def _check_out(path: str) -> None:
    """Fail now, not after the simulation, if ``_emit`` could not write ``path``."""
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


def _provenance(args, seed: int | None = None) -> dict:
    out = {"version": __version__, "command": args.command}
    if seed is not None:
        out["seed"] = seed
    return out


def _start_draws(args) -> int:
    """Resolve and announce the seed of a randomized command, then check --out."""
    seed = resolve_seed(args.seed)
    print(f"seed: {seed}", file=sys.stderr)
    _check_out(args.out)
    return seed


def _basis_size(text: str):
    if text.lower() in ("raw", "none"):
        return None
    return int(text)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


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
                     help="parallel worker processes (default 1)")


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
    seed = _start_draws(args)
    law = simulate_tld(
        truncation=args.truncation,
        reps=args.reps,
        seed=seed,
        workers=args.workers,
    )
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
    payload = _provenance(args, seed)
    payload.update({"K": args.truncation, "reps": args.reps, "rows": rows})
    _emit(args, ["alpha", "critical_value", "reps", "K", "seed"], rows, payload)
    return 0


def _cmd_cpt_test(args) -> int:
    sample = _load_sample(args, args.input)
    seed = None
    if args.method == "cvm2d":
        seed = _start_draws(args)
        law = simulate_tld(args.truncation, args.reps, seed=seed, workers=args.workers)
        outcome = cvm2d_test(sample, args.d, law)
    else:
        _, cusum = sample_cusum(sample, args.d)
        outcome = corollary_tests(cusum, args.method)
    row = {
        "method": outcome.method,
        "d": outcome.d,
        "n": sample.n_curves,
        "statistic": outcome.statistic,
        "p_value": outcome.p_value,
    }
    payload = _provenance(args, seed)
    payload.update(row)
    payload["diagnostics"] = _jsonable(outcome.diagnostics)
    _emit(args, ["method", "d", "n", "statistic", "p_value"], [row], payload)
    return 0


def _cmd_estimate(args) -> int:
    sample = _load_sample(args, args.input)
    _, cusum = sample_cusum(sample, args.d)
    theta = estimate_changepoint(cusum)
    row = {"d": args.d, "n": sample.n_curves, "theta_hat": theta}
    payload = _provenance(args)
    payload.update(row)
    _emit(args, ["d", "n", "theta_hat"], [row], payload)
    return 0


def _cmd_segment(args) -> int:
    sample = _load_sample(args, args.input)
    seed = _start_draws(args)
    law = simulate_tld(args.truncation, args.reps, seed=seed, workers=args.workers)
    tree = binary_segmentation(
        sample, args.d_list, args.alpha, law, min_segment=args.min_segment
    )
    rows = tree.rows()
    columns = ["iteration", "lo", "hi", "length", "status", "change_after", "split_d"]
    columns += [f"p_d{d}" for d in tree.d_list]
    payload = _provenance(args, seed)
    payload["tree"] = tree.to_dict()
    _emit(args, columns, rows, payload)
    return 0


def _cmd_two_sample(args) -> int:
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
    payload = _provenance(args)
    payload.update(row)
    payload["diagnostics"] = _jsonable(outcome.diagnostics)
    _emit(args, ["d", "n", "m", "statistic", "z_score", "p_value"], [row], payload)
    return 0


def _cmd_simulate(args) -> int:
    seed = _start_draws(args)
    k_star = args.k_star
    if args.a != 0.0 and k_star is None and args.test != "two-sample":
        k_star = args.n // 2
    scenario = SimScenario(
        n=args.n,
        m=args.m,
        grid_size=args.grid_size,
        a=args.a,
        k_star=k_star,
        d_list=args.d_list,
        alpha_list=args.alpha,
        reps=args.reps,
        seed=seed,
    )
    law = None
    if args.test == "cvm2d":
        law = simulate_tld(args.truncation, args.law_reps, seed=seed + 1, workers=args.workers)
    report = run_size_power(scenario, args.test, law=law, workers=args.workers)
    rows = [
        {
            "N": r["n"],
            "d": r["d"],
            "alpha": r["alpha"],
            "a": r["a"],
            "k_star": r["k_star"],
            "p_hat": r["p_hat"],
            "band_lo": r["band_lo"],
            "band_hi": r["band_hi"],
            "R": r["reps"],
            "seed": r["seed"],
        }
        for r in report.rows
    ]
    payload = _provenance(args, seed)
    payload.update({"test": args.test, "m": args.m, "grid_size": args.grid_size, "rows": rows})
    _emit(
        args,
        ["N", "d", "alpha", "a", "k_star", "p_hat", "band_lo", "band_hi", "R", "seed"],
        rows,
        payload,
    )
    return 0


def _cmd_fpca_summary(args) -> int:
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
    payload = _provenance(args)
    payload.update(
        {
            "n": sample.n_curves,
            "requested_d": args.d,
            "retained_d": eig.d,
            "rows": rows,
        }
    )
    _emit(args, ["component", "eigenvalue", "spacing", "fraction", "cumulative"], rows, payload)
    return 0


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
    p.add_argument("--method", choices=_METHODS, default="cvm2d",
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
    p.add_argument("--d-list", type=_int_list, default=(3, 4, 5, 6), metavar="D1,D2,...",
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
    p.add_argument("--test", choices=_METHODS + ("two-sample",), default="cvm2d")
    p.add_argument("--n", type=int, required=True, help="curves per sample")
    p.add_argument("--m", type=int, default=None,
                   help="second-sample size for two-sample (default: n)")
    p.add_argument("--a", type=float, default=0.0, help="shift amplitude (default 0)")
    p.add_argument("--k-star", type=int, default=None,
                   help="last pre-change index (default n//2 when a != 0)")
    p.add_argument("--d-list", type=_int_list, default=(5,), metavar="D1,D2,...")
    p.add_argument("--alpha", type=_float_list, default=(0.05,), metavar="A1,A2,...",
                   help="levels evaluated (default 0.05)")
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
