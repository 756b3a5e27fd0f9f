"""An in-memory span recorder that times the package's layers from outside.

`instrument` replaces each public layer function with a timing wrapper at
every module of the package that binds it (``fdchange.cli.ingest`` and
``fdchange.ingest.ingest`` are the same object and both get the wrapper).
Spans are kept in flat lists with the index of their parent span and are
summarized (calls, inclusive time, self time, work count) at the end.
"""

from __future__ import annotations

import sys
from time import perf_counter

#: (module, attribute, span name, work extractor applied to the result).
LAYER_FUNCTIONS = (
    ("fdchange.ingest", "ingest", "ingest.ingest", lambda r: r.n_curves),
    ("fdchange.fpca", "sample_eigensystem", "fpca.sample_eigensystem", None),
    ("fdchange.fpca", "compute_scores", "fpca.compute_scores", None),
    ("fdchange.fpca", "eigendecompose", "fpca.eigendecompose", None),
    ("fdchange.changepoint", "cusum_matrix", "changepoint.cusum_matrix", None),
    ("fdchange.changepoint", "cvm2d_test", "changepoint.cvm2d_test", None),
    ("fdchange.changepoint", "corollary_tests", "changepoint.corollary_tests", None),
    ("fdchange.changepoint", "estimate_changepoint", "changepoint.estimate_changepoint", None),
    ("fdchange.changepoint", "binary_segmentation", "changepoint.binary_segmentation",
     lambda r: len(r.nodes())),
    ("fdchange.limitdist", "simulate_tld", "limitdist.simulate_tld", lambda r: r.reps),
    ("fdchange.limitdist", "bridge_sq_kernel_eigenvalues", "limitdist.nystrom", None),
    ("fdchange.limitdist", "LimitLaw.p_value", "limitdist.p_value", None),
    ("fdchange._rng", "replicate_rng", "rng.replicate_rng", None),
    ("fdchange._parallel", "run_replicates", "parallel.run_replicates", None),
    ("fdchange.simulation", "run_size_power", "simulation.run_size_power",
     lambda r: r.scenario.reps),
    ("fdchange.twosample", "pooled_eigensystem", "twosample.pooled_eigensystem", None),
    ("fdchange.twosample", "two_sample_test", "twosample.two_sample_test", None),
)

#: Private replicate loops, wrapped when present so that their time counts
#: for their own layer and not for ``_parallel.run_replicates`` that calls
#: them. A refactor may remove them without failing the traced run.
REPLICATE_LOOPS = (
    ("fdchange.limitdist", "_tld_chunk", "limitdist.tld_chunk", None),
    ("fdchange.simulation", "_changepoint_chunk", "simulation.changepoint_chunk", None),
    ("fdchange.simulation", "_twosample_chunk", "simulation.twosample_chunk", None),
)


class SpanRecorder:
    """Flat span store: name, start, end, parent index and a work count."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: list[int] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, work=None):
        def timed(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.work.append(0)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.starts[index] = start
                self.ends[index] = end
            if work is not None:
                self.work[index] = int(work(result))
            return result

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", name)
        return timed

    def self_times(self) -> list[float]:
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, work."""
        out: dict[str, dict[str, float]] = {}
        for i, own in enumerate(self.self_times()):
            row = out.setdefault(
                self.names[i], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
            )
            row["calls"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += own
            row["work"] += self.work[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span as one CSV line: index, parent, name, start, end, work."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start,end,work\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{self.parents[i]},{name},{self.starts[i]!r},{self.ends[i]!r},"
                    f"{self.work[i]}\n"
                )


def instrument(recorder: SpanRecorder) -> dict[str, int]:
    """Wrap every layer function at each of its bindings; return binding counts.

    Raises ``LookupError`` when a listed function no longer exists, so a
    rename fails the traced run instead of silently zeroing a layer.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "fdchange" or n.startswith("fdchange.")]
    bound: dict[str, int] = {}
    entries = [(e, True) for e in LAYER_FUNCTIONS] + [(e, False) for e in REPLICATE_LOOPS]
    for (module_name, attr, span, work), needed in entries:
        home = sys.modules.get(module_name)
        if home is None:
            raise LookupError(f"module {module_name} is not imported")
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(home, owner_name) if owner_name else home
        original = getattr(owner, fn_name, None)
        if original is None:
            if needed:
                raise LookupError(f"{module_name}.{attr} does not exist")
            continue
        wrapper = recorder.wrap(span, original, work)
        if owner_name:
            setattr(owner, fn_name, wrapper)
            bound[span] = 1
            continue
        count = 0
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    count += 1
        bound[span] = count
    return bound
