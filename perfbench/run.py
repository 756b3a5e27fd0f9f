"""fdchange benchmark: run one workload through the real CLI and report metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload cpt --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each repetition is a fresh Python process that times ``import fdchange.cli``
and then runs the workload's command sequence through
``fdchange.cli.main(argv)``. Repetitions continue until ``--seconds`` have
been measured (at least three). Every command's report is checked. With
``--trace 1`` half the time goes to untraced repetitions and half to traced
ones, whose layer spans give the per-layer metrics; a ``_parallel`` probe and
an ``-X importtime`` run follow.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from time import perf_counter

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

#: BLAS/OpenMP thread variables; cleared for the program so each run gets the
#: library default.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)

#: Import-only processes per run; every repetition adds one more sample.
IMPORT_SAMPLES = 1
MIN_REPS = 3
#: No repetition starts once a run has taken this long, so that a run on a
#: slow machine still ends well inside three minutes.
RUN_DEADLINE_S = 120
CHILD_TIMEOUT_S = 150
PROBE_REPS = 8000

CLI_COMMANDS = ("cpt_test", "fpca_summary", "estimate", "two_sample", "segment", "simulate")
LAYERS = ("cli", "ingest", "fpca", "changepoint", "limitdist", "rng", "parallel",
          "simulation", "twosample")


class Runner:
    """Spawns the benchmark's child processes for one workload run."""

    def __init__(self, root: str, workdir: str) -> None:
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self._count = 0

    def path(self, stem: str) -> str:
        self._count += 1
        return os.path.join(self.workdir, f"{self._count:03d}-{stem}")

    def child(self, spec: dict) -> tuple[dict | None, float]:
        """Run child.py on ``spec``; return its result (None if it died) and wall time."""
        spec_path = self.path("spec.json")
        result_path = spec_path.replace("spec.json", "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        log_path = spec_path.replace("spec.json", "log.txt")
        start = perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                    env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=CHILD_TIMEOUT_S, check=False,
                )
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = -1
        elapsed = perf_counter() - start
        if code != 0 or not os.path.exists(result_path):
            with open(log_path, encoding="utf-8") as log:
                sys.stderr.write(f"child {spec['mode']} exited {code}:\n{log.read()[-2000:]}\n")
            return None, elapsed
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), elapsed

    def import_only(self) -> dict | None:
        return self.child({"mode": "import"})[0]

    def scipy_stats_import_s(self) -> float:
        """Cumulative ``scipy.stats`` import time from ``python -X importtime``."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fdchange.cli"],
            env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.stats":
                return int(parts[1]) / 1e6
        return 0.0


class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            sys.stderr.write(f"FAILED {what}: {error}\n")


def run_repetition(runner: Runner, prepared, tally: Tally, trace: bool) -> dict:
    """One fresh process over the command sequence; checks every report."""
    outs = []
    commands = []
    for name, argv in prepared.commands:
        out = runner.path(f"{name}.json")
        outs.append(out)
        commands.append((name, [*argv, "--output", "json", "--out", out]))
    spec = {"mode": "commands", "commands": commands, "trace": trace,
            "span_file": runner.path("spans.csv")}
    result, elapsed = runner.child(spec)
    rows = result["commands"] if result else [None] * len(commands)
    for (name, _), out, row, check in zip(commands, outs, rows, prepared.checks):
        if row is None:
            tally.record(name, "process died")
        elif row["rc"] != 0:
            tally.record(name, f"exit code {row['rc']}")
        else:
            with open(out, encoding="utf-8") as fh:
                tally.record(name, check(json.load(fh)))
    if result is None:
        return {"import_s": None, "maxrss_mb": None, "wall_s": elapsed, "spans": None,
                "commands": []}
    return {
        "import_s": result["import_s"],
        "maxrss_mb": result["maxrss_mb"],
        "wall_s": sum(row["seconds"] for row in rows),
        "spans": result.get("spans"),
        "commands": rows,
    }


def repeat(runner, prepared, tally, trace: bool, budget: float, min_reps: int,
           deadline: float) -> list[dict]:
    """Repetitions until ``budget`` seconds and ``min_reps`` are reached.

    A repetition that would start after ``deadline`` (a perf_counter value)
    is skipped, provided one has run.
    """
    reps = []
    start = perf_counter()
    while len(reps) < min_reps or perf_counter() - start < budget:
        if reps and perf_counter() > deadline:
            break
        reps.append(run_repetition(runner, prepared, tally, trace))
    return reps


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


def _layer_metrics(summary: dict, commands: list[dict]) -> dict[str, tuple[float, str]]:
    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    layer_self = {
        layer: sum((r["self_s"] for name, r in summary.items() if name.split(".")[0] == layer), 0.0)
        for layer in LAYERS
    }
    tld, nys = row("limitdist.simulate_tld"), row("limitdist.nystrom")
    ing, rsp = row("ingest.ingest"), row("simulation.run_size_power")
    m = {
        "limitdist.simulate_tld_s": (tld["total_s"], "s"),
        "limitdist.tld_draws_per_s": (rate(tld["work"], tld["total_s"] - nys["total_s"]), "1/s"),
        "limitdist.nystrom_s": (nys["total_s"], "s"),
        "limitdist.p_value_calls": (row("limitdist.p_value")["calls"], "count"),
        "limitdist.p_value_s": (row("limitdist.p_value")["total_s"], "s"),
        "rng.replicate_rng_calls": (row("rng.replicate_rng")["calls"], "count"),
        "rng.replicate_rng_s": (row("rng.replicate_rng")["total_s"], "s"),
        "ingest.ingest_calls": (ing["calls"], "count"),
        "ingest.ingest_s": (ing["total_s"], "s"),
        "ingest.curves_per_s": (rate(ing["work"], ing["total_s"]), "1/s"),
        "fpca.sample_eigensystem_calls": (row("fpca.sample_eigensystem")["calls"], "count"),
        "fpca.sample_eigensystem_s": (row("fpca.sample_eigensystem")["total_s"], "s"),
        "fpca.compute_scores_s": (row("fpca.compute_scores")["total_s"], "s"),
        "fpca.eigendecompose_calls": (row("fpca.eigendecompose")["calls"], "count"),
        "fpca.eigendecompose_s": (row("fpca.eigendecompose")["total_s"], "s"),
        "changepoint.cvm2d_test_s": (row("changepoint.cvm2d_test")["total_s"], "s"),
        "changepoint.corollary_tests_s": (row("changepoint.corollary_tests")["total_s"], "s"),
        "changepoint.estimate_changepoint_s":
            (row("changepoint.estimate_changepoint")["total_s"], "s"),
        "changepoint.binary_segmentation_s":
            (row("changepoint.binary_segmentation")["total_s"], "s"),
        "changepoint.segments_examined": (row("changepoint.binary_segmentation")["work"], "count"),
        "simulation.run_size_power_s": (rsp["total_s"], "s"),
        "simulation.replicate_s": (rate(layer_self["simulation"], rsp["work"]), "s"),
        "twosample.pooled_eigensystem_s": (row("twosample.pooled_eigensystem")["total_s"], "s"),
        "twosample.two_sample_test_s": (row("twosample.two_sample_test")["total_s"], "s"),
        "parallel.run_replicates_s": (row("parallel.run_replicates")["total_s"], "s"),
    }
    for command in CLI_COMMANDS:
        seconds = sum((c["seconds"] for c in commands if c["name"] == command), 0.0)
        m[f"cli.{command}_s"] = (seconds, "s")
    for layer, own in layer_self.items():
        m[f"{layer}.self_s"] = (own, "s")
    m["trace.spans"] = (sum(r["calls"] for r in summary.values()), "count")
    return m


def _median_metrics(per_rep: list[dict]) -> dict[str, tuple[float, str, int]]:
    out = {}
    for name, (_, unit) in per_rep[0].items():
        values = [m[name][0] for m in per_rep]
        out[name] = (statistics.median(values), unit, len(values))
    return out


def _samples(reps: list[dict], key: str) -> list[float]:
    values = [r[key] for r in reps if r[key] is not None]
    if not values:
        raise RuntimeError(f"no {key} sample: every child process failed")
    return values


def _rounded(values: list[float]) -> list[float]:
    return [round(v, 3) for v in values]


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    workload = workloads.WORKLOADS[name]
    base = os.path.join(HERE, ".work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=base)
    tally = Tally()
    try:
        runner = Runner(root, workdir)
        start = perf_counter()
        deadline = start + RUN_DEADLINE_S
        prepared = workload.prepare(seed, workdir)
        gen_s = perf_counter() - start
        imports = [r for r in (runner.import_only() for _ in range(IMPORT_SAMPLES)) if r]
        if not trace:
            reps = repeat(runner, prepared, tally, False, seconds, MIN_REPS, deadline)
            setup = _samples(imports + reps, "import_s")
            walls = [r["wall_s"] for r in reps]
            rss_mb = max(_samples(imports + reps, "maxrss_mb"))
            metrics = {
                "setup_s": (statistics.median(setup), "s", len(setup)),
                "wall_s": (statistics.median(walls), "s", len(walls)),
                "peak_rss_mb": (rss_mb, "MB", len(imports) + len(reps)),
            }
        else:
            plain = repeat(runner, prepared, tally, False, seconds / 2, 1, deadline)
            traced = repeat(runner, prepared, tally, True, seconds / 2, 1, deadline)
            per_rep = []
            for rep in traced:
                if rep["spans"] is None:
                    continue
                missing = [s for s in workload.expected_spans if s not in rep["spans"]]
                tally.record("trace", f"spans never fired: {missing}" if missing else None)
                per_rep.append(_layer_metrics(rep["spans"], rep["commands"]))
            if not per_rep:
                tally.record("trace", "no traced repetition completed")
                metrics = {}
            else:
                metrics = _median_metrics(per_rep)
            walls = [r["wall_s"] for r in plain]
            plain_wall = statistics.median(walls)
            traced_wall = statistics.median(r["wall_s"] for r in traced)
            metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio", len(traced))
            metrics["import.scipy_stats_s"] = (runner.scipy_stats_import_s(), "s", 1)
            metrics.update(parallel_probe(runner, seed, tally))
        facts = dict(prepared.facts, gen_s=round(gen_s, 3),
                     imports=_rounded(_samples(imports, "import_s")),
                     wall_samples=_rounded(walls))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": name, "seed": seed, "trace": trace, "tally": tally,
            "metrics": metrics, "facts": facts}


def parallel_probe(runner: Runner, seed: int, tally: Tally) -> dict:
    nproc = len(os.sched_getaffinity(0))
    spec = {"mode": "probe", "nproc": nproc, "truncation": 49, "reps": PROBE_REPS,
            "seed": workloads.program_seed(seed, 9)}
    result, _ = runner.child(spec)
    if result is None:
        tally.record("parallel probe", "process died")
        return {"parallel.speedup_nproc": (0.0, "ratio", 0)}
    tally.record(
        "parallel probe",
        None if result["identical"] else f"samples differ between workers 1 and {nproc}",
    )
    return {"parallel.speedup_nproc": (result["serial_s"] / result["parallel_s"], "ratio", 1)}


def report(results: list[dict], env: dict) -> dict:
    print(f"env {json.dumps(env, sort_keys=True)}")
    attempted = sum(r["tally"].attempted for r in results)
    failed = sum(r["tally"].failed for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        tally = r["tally"]
        print(f"workload {r['workload']} seed {r['seed']} trace {int(r['trace'])} "
              f"facts {json.dumps(r['facts'], sort_keys=True)}")
        frac = tally.failed / tally.attempted if tally.attempted else 1.0
        print(f"  {'failed_frac':<38} {frac:>14.6g} ratio   ({tally.failed}/{tally.attempted})")
        for name, (value, unit, count) in r["metrics"].items():
            print(f"  {name:<38} {value:>14.6g} {unit:<7} n={count}")
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
            "failed": failed if attempted else 1, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fdchange", "cli.py")):
        print(f"error: no fdchange sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), root) for n in names]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(results, environment())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
