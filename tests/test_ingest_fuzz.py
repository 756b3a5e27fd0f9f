"""CSV fuzz: any rows- or long-layout file maps to a documented exit code.

``fpca-summary`` reads the file through the same ingestion as every other
command. Malformed cells, ragged rows, non-finite numbers, bytes that are not
UTF-8 and degenerate samples must end in exit 3, 4 or 5 with an ``error:``
line, never in a traceback. The long layout's ``np.loadtxt`` reader must
agree with its per-row reader on every file.
"""

import contextlib
import csv
import importlib
import io
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fdchange.cli import main
from fdchange.errors import ParseError
from fdchange.ingest import _read_long_layout, _read_long_records

#: The module itself; ``fdchange.ingest`` the attribute is the function.
INGEST = importlib.import_module("fdchange.ingest")

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


FUZZ = settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def text_of(lines):
    return "".join(",".join(cells) + "\n" for cells in lines)


@FUZZ
@given(
    case=st.one_of(rows_files(), long_files()),
    basis=st.sampled_from(["3", "5", "raw"]),
    missing=st.sampled_from(["drop", "fail"]),
)
def test_fpca_summary_never_raises(case, basis, missing):
    layout, lines = case
    assert_documented_exit(layout, text_of(lines).encode(), basis, missing)


@FUZZ
@given(
    case=st.one_of(rows_files(), long_files()),
    bom=st.booleans(),
    junk=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.one_of(
                st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80", b"\xef\xbb\xbf"]),
                st.binary(min_size=1, max_size=3),
            ),
        ),
        max_size=2,
    ),
    basis=st.sampled_from(["3", "raw"]),
)
def test_fpca_summary_never_raises_on_raw_bytes(case, bom, junk, basis):
    layout, lines = case
    data = text_of(lines).encode()
    for at, chunk in junk:
        at %= len(data) + 1
        data = data[:at] + chunk + data[at:]
    assert_documented_exit(layout, b"\xef\xbb\xbf" * bom + data, basis, "drop")


def assert_documented_exit(layout, data, basis, missing):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "fuzz.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([
                "fpca-summary", path, "--layout", layout, "--basis-size", basis,
                "--grid-size", "7", "--missing", missing, "--d", "2",
            ])
    assert code in (0, 3, 4, 5)
    if code:
        assert err.getvalue().splitlines()[-1].startswith("error:")


# --- the long layout's two readers ------------------------------------------

LIMIT = csv.field_size_limit()
MISSING = ["NA", "na", " NA ", "nan", "NaN", " nan\t", "", "  "]
#: Ids of the table's id width less one, equal and one more: numpy keeps the
#: first whole and cuts the others, which go to the per-row reader.
WIDE_IDS = ["w" * (INGEST.ID_WIDTH + k) for k in (-1, 0, 1)]
GOOD_IDS = [
    "c1", " c1", "c1 ", "c2", '"c,2"', '" c1"', '"c""4"', 'c"5', "é1", "曲1", "c 1", *WIDE_IDS,
]
VALUES = st.one_of(NUMBERS, st.sampled_from(MISSING))
GOOD = st.tuples(st.sampled_from(GOOD_IDS), NUMBERS, VALUES).map(",".join)
#: Adjacent records of one curve whose raw ids differ in surrounding spaces.
RESPACED = st.tuples(
    st.sampled_from([" c1", "c1 ", '" c1"']), NUMBERS, VALUES, NUMBERS, VALUES,
).map(lambda r: f"{r[0]},{r[1]},{r[2]}\nc1,{r[3]},{r[4]}")
ODD = st.sampled_from(["1_0", "inf", "-Infinity", "1e999", "abc", "\x1c0.5", "-nan", '"0.25"'])
#: Records the per-row reader may reject, or that only it reads, one fault each.
FAULTS = st.one_of(
    st.tuples(st.sampled_from(['"c\n3"', '"c\r\n3"', '"c\r3"']), NUMBERS, NUMBERS).map(",".join),
    st.tuples(st.sampled_from(["", " ", '""']), NUMBERS, NUMBERS).map(",".join),
    st.tuples(st.sampled_from(GOOD_IDS), st.sampled_from(MISSING), NUMBERS).map(",".join),
    st.tuples(st.sampled_from(GOOD_IDS), ODD, NUMBERS).map(",".join),
    st.tuples(st.sampled_from(GOOD_IDS), NUMBERS, ODD).map(",".join),
    st.tuples(st.sampled_from(GOOD_IDS), NUMBERS).map(",".join),
    st.tuples(st.sampled_from(GOOD_IDS), NUMBERS, NUMBERS, NUMBERS).map(",".join),
    st.sampled_from([" ", "\t"]),
    st.sampled_from([  # a cell over csv's field limit, in each column
        "c" * (LIMIT + 1) + ",0.5,1",
        '"' + "c\n" * (LIMIT // 2 + 1) + '",0.5,1',
        "c1," + " " * LIMIT + "0.5,1",
        'c1,"\n' + " " * LIMIT + '0.5",1',
        "c1,0.5,0." + "1" * LIMIT,
    ]),
)
HEADERS = st.sampled_from(
    ["curve_id,t,value", '"curve\nid",t,value', "\ufeffid,t,value", "id,t", "id,t,value,extra"]
)


@st.composite
def long_texts(draw):
    """Long-layout text with quoted and spaced ids, interleaved curves, every
    missing spelling, mixed line ends and blank lines; half the texts carry up
    to two faults, among them 2- and 4-field records and over-limit cells."""
    records = draw(st.lists(st.one_of(GOOD, RESPACED, st.just("")), max_size=20))
    if draw(st.booleans()):
        for fault in draw(st.lists(FAULTS, min_size=1, max_size=2)):
            records.insert(draw(st.integers(0, len(records))), fault)
    lines = [draw(st.one_of(st.just("curve_id,t,value"), HEADERS)), *records]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def long_outcome(reader, path):
    try:
        ids, ts, vs = reader(path)
    except ParseError as exc:
        return "error", str(exc)
    return ids, [t.tobytes() for t in ts], [v.tobytes() for v in vs]


def assert_readers_agree(text):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "long.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no stray numpy warning on stderr
            assert long_outcome(_read_long_layout, path) == long_outcome(_read_long_records, path)


#: A CR-only file with NA cells, the last one at the end of the file.
CR_ONLY_NA = "curve_id,t,value\rc1,0,NA\rc1,0.5,1\r c1,1,2\rc2,0,NA\rc2,1,NA"


@FUZZ
@given(text=long_texts())
@example(text='"curve\nid",t,value\n')  # a header over two lines and nothing else
@example(text="curve_id,t,value\nc1,\x1c0.5,0.0")  # numpy strips 0x1c, float does not
@example(text="curve_id,t,value\nc1\x00,0.5,0.0\nc1,0,1\n")  # numpy drops a trailing NUL
@example(text=CR_ONLY_NA)
def test_table_reader_agrees_with_per_row_reader(text):
    assert_readers_agree(text)


@FUZZ
@given(text=long_texts(), block=st.sampled_from([1, 16]))
@example(text=CR_ONLY_NA, block=1)
@example(text='curve_id,t,value\nc1,0,"1\n2",0,3\n', block=1)  # one record, two lines
def test_table_reader_agrees_across_block_edges(text, block):
    # Blocks of 1 or 16 characters (one line, or one or two records) put
    # blank lines, faults and records over several lines at and across the
    # edges of the table's loadtxt calls.
    with mock.patch.object(INGEST, "BLOCK_CHARS", block):
        assert_readers_agree(text)
