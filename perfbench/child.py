"""One fresh benchmark process: import the CLI, then run a command sequence.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds ``mode`` ("commands", "import" or "probe") and its arguments.
The import of ``fdchange.cli`` is timed first, as a user pays it on every
command. In "commands" mode each argv goes through ``fdchange.cli.main``
exactly as the console script would run it; with ``trace`` set, the layer
functions are wrapped by the span recorder first and the spans are written
out when the sequence ends.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from time import perf_counter


def _run_command(main, argv: list[str]) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:  # argparse usage errors exit through here
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the CLI must map every failure to an exit code
        traceback.print_exc()
        return 1


def _commands(spec: dict, import_s: float) -> dict:
    from fdchange.cli import main

    recorder = None
    if spec.get("trace"):
        import spans

        recorder = spans.SpanRecorder()
        spans.instrument(recorder)
    results = []
    for name, argv in spec["commands"]:
        start = perf_counter()
        if recorder is None:
            code = _run_command(main, argv)
        else:
            code = recorder.wrap(f"cli.{name}", _run_command)(main, argv)
        results.append({"name": name, "rc": code, "seconds": perf_counter() - start})
    out = {"import_s": import_s, "commands": results}
    if recorder is not None:
        out["spans"] = recorder.summary()
        recorder.dump(spec["span_file"])
    return out


def _probe(spec: dict, import_s: float) -> dict:
    """simulate_tld at workers 1 and at workers nproc on one seed and rep count."""
    from fdchange.limitdist import simulate_tld

    timings = {}
    samples = {}
    for workers in (1, spec["nproc"]):
        start = perf_counter()
        law = simulate_tld(spec["truncation"], spec["reps"], seed=spec["seed"], workers=workers)
        timings[workers] = perf_counter() - start
        samples[workers] = law.samples.tobytes()
    return {
        "import_s": import_s,
        "serial_s": timings[1],
        "parallel_s": timings[spec["nproc"]],
        "identical": samples[1] == samples[spec["nproc"]],
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    start = perf_counter()
    import fdchange.cli  # noqa: F401  (the timed set-up)

    import_s = perf_counter() - start
    if spec["mode"] == "commands":
        out = _commands(spec, import_s)
    elif spec["mode"] == "probe":
        out = _probe(spec, import_s)
    else:
        out = {"import_s": import_s}
    out["maxrss_mb"] = max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
