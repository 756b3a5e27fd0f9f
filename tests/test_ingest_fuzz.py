"""CSV fuzz: any rows- or long-layout file maps to a documented exit code.

``fpca-summary`` reads the file through the same ingestion as every other
command. Malformed cells, ragged rows, non-finite numbers and degenerate
samples must end in exit 3, 4 or 5 with an ``error:`` line, never in a
traceback.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fdchange.cli import main

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 400).map(str),
    st.floats(0.0, 1.0).map(repr),
)
WORDS = st.sampled_from(["NA", "", "nan", "NaN", "inf", "-Infinity", "1e999", "abc"])
TOKENS = st.one_of(NUMBERS, WORDS)
CELLS = st.one_of(
    TOKENS,
    st.tuples(st.sampled_from([" ", "  ", "\t"]), TOKENS).map(lambda p: f"{p[0]}{p[1]} "),
)
IDS = st.sampled_from(["c1", " c1", "c1 ", "c2", "c3", "", " "])


@st.composite
def rows_files(draw):
    # Half the files hold only numbers in full rows, so that samples reach
    # smoothing and the eigensolver, not just the parser.
    clean = draw(st.booleans())
    cells = NUMBERS if clean else CELLS
    width = draw(st.integers(1, 8))
    short = width if clean else max(width - 1, 0)
    header = draw(st.lists(cells, min_size=width, max_size=width))
    body = draw(
        st.lists(
            st.lists(cells, min_size=short, max_size=width if clean else width + 1),
            max_size=6,
        )
    )
    return "rows", [header, *body]


@st.composite
def long_files(draw):
    clean = draw(st.booleans())
    cells = NUMBERS if clean else CELLS
    header = draw(st.sampled_from([["curve_id", "t", "value"], ["id", "t"]]))
    observation = st.tuples(IDS, cells, cells).map(list)
    if not clean:
        observation = st.one_of(observation, st.lists(CELLS, min_size=0, max_size=4))
    body = draw(st.lists(observation, max_size=30))
    return "long", [header, *body]


@settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=st.one_of(rows_files(), long_files()),
    basis=st.sampled_from(["3", "5", "raw"]),
    missing=st.sampled_from(["drop", "fail"]),
)
def test_fpca_summary_never_raises(case, basis, missing):
    layout, lines = case
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "fuzz.csv")
        with open(path, "w", newline="") as fh:
            fh.write("".join(",".join(cells) + "\n" for cells in lines))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([
                "fpca-summary", path, "--layout", layout, "--basis-size", basis,
                "--grid-size", "7", "--missing", missing, "--d", "2",
            ])
    assert code in (0, 3, 4, 5)
    if code:
        assert err.getvalue().splitlines()[-1].startswith("error:")
